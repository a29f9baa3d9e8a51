"""JSON document formats and the command-line surface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import qopcoh
from qopcoh.channel import (
    QuantumOperation,
    dephasing_operation,
    hadamard_operation,
    identity_operation,
)
from qopcoh.cli import main
from qopcoh.documents import (
    dumps_document,
    load_document,
    matrix_from_json,
    operation_from_document,
    operation_to_document,
    superoperation_from_document,
    superoperation_to_document,
)
from qopcoh.exceptions import ParseError
from qopcoh.linalg import max_abs
from qopcoh.suites import run_suite
from qopcoh.superop import Superoperation, phase_out


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps_document(doc))
    return str(path)


def write_operation(tmp_path, name, op):
    return write_doc(tmp_path, name, operation_to_document(op))


class TestOperationDocuments:
    @pytest.mark.parametrize(
        "op",
        [identity_operation(2), dephasing_operation(2), hadamard_operation()],
        ids=["unitary", "kraus", "unitary-h"],
    )
    def test_object_round_trip(self, op):
        doc = operation_to_document(op)
        back = operation_from_document(doc)
        assert back.kind == op.kind
        assert max_abs(back.choi.matrix - op.choi.matrix) <= 1e-12

    def test_choi_document_round_trip(self):
        op = QuantumOperation.from_choi(dephasing_operation(2).choi)
        back = operation_from_document(operation_to_document(op))
        assert back.kind == "choi"
        assert max_abs(back.choi.matrix - op.choi.matrix) <= 1e-12

    def test_parse_then_serialize_is_byte_stable(self, tmp_path):
        path = write_operation(tmp_path, "op.json", hadamard_operation())
        original = open(path).read()
        reloaded = dumps_document(load_document(path))
        assert reloaded == original
        rebuilt = dumps_document(operation_to_document(operation_from_document(load_document(path))))
        assert rebuilt == original

    def test_doubles_round_trip_exactly(self):
        # JSON's shortest-repr floats reproduce every double bit-for-bit
        op = hadamard_operation()
        doc = json.loads(dumps_document(operation_to_document(op)))
        back = operation_from_document(doc)
        assert max_abs(back.unitary - op.unitary) == 0.0

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_document(str(bad))
        with pytest.raises(ParseError):
            operation_from_document({"schema_version": "1", "kind": "unitary", "d": 2})
        with pytest.raises(ParseError):
            operation_from_document(
                {"schema_version": "2", "kind": "unitary", "d": 2, "matrices": []}
            )
        with pytest.raises(ParseError):
            matrix_from_json([[1.0, 2.0]])
        doc = operation_to_document(identity_operation(2))
        doc["kind"] = "mystery"
        with pytest.raises(ParseError):
            operation_from_document(doc)
        for field, value in [("d", "x"), ("d", None), ("d", 2.5), ("d", 2.0), ("d", True), ("d", 0), ("matrices", 5)]:
            doc = operation_to_document(identity_operation(2))
            doc[field] = value
            with pytest.raises(ParseError):
                operation_from_document(doc)
            sop = superoperation_to_document(phase_out(2))
            sop[field] = value
            with pytest.raises(ParseError):
                superoperation_from_document(sop)
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ParseError):
                matrix_from_json([[[1.0, 0.0], [0.0, bad]]])

    def test_non_unitary_matrix_in_unitary_document(self):
        doc = operation_to_document(identity_operation(2))
        doc["matrices"][0][0][0] = [3.0, 0.0]
        with pytest.raises(ParseError):
            operation_from_document(doc)
        doc["matrices"][0][0][0] = [float("inf"), 0.0]
        with pytest.raises(ParseError):
            operation_from_document(doc)


class TestSuperoperationDocuments:
    def test_sandwich_round_trip(self):
        s = Superoperation.from_sandwich(hadamard_operation(), identity_operation(2))
        back = superoperation_from_document(superoperation_to_document(s))
        assert back.form == "sandwich"
        assert max_abs(back.matrix - s.matrix) <= 1e-12

    def test_kraus_on_choi_round_trip(self):
        s = phase_out(2)
        back = superoperation_from_document(superoperation_to_document(s))
        assert back.form == "kraus_on_choi"
        assert max_abs(back.matrix - s.matrix) <= 1e-12

    def test_missing_halves(self):
        doc = {"schema_version": "1", "kind": "sandwich", "d": 2}
        with pytest.raises(ParseError):
            superoperation_from_document(doc)


class TestCliConvertCheckDephase:
    def setup_method(self):
        self.runner = CliRunner()

    def test_convert_identity_to_choi(self, tmp_path):
        src = write_operation(tmp_path, "id.json", identity_operation(2))
        result = self.runner.invoke(main, ["convert", src, "--to", "choi"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        c = matrix_from_json(doc["matrices"][0])
        expected = np.zeros((4, 4), dtype=complex)
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        assert max_abs(c - expected) <= 1e-12

    def test_convert_dephasing_kraus_to_choi(self, tmp_path):
        src = write_operation(tmp_path, "deph.json", dephasing_operation(2))
        result = self.runner.invoke(main, ["convert", src, "--to", "choi"])
        doc = json.loads(result.output)
        assert max_abs(matrix_from_json(doc["matrices"][0]) - np.diag([0.5, 0, 0, 0.5])) <= 1e-12

    def test_convert_projector_choi_to_kraus_then_check(self, tmp_path):
        from qopcoh.channel import ChoiState

        op = QuantumOperation.from_choi(ChoiState(np.diag([1.0, 0, 0, 0]), 2))
        src = write_operation(tmp_path, "proj.json", op)
        out = str(tmp_path / "kraus.json")
        result = self.runner.invoke(main, ["convert", src, "--to", "kraus", "--out", out])
        assert result.exit_code == 0
        check = self.runner.invoke(main, ["check", out, "--predicate", "cptp"])
        assert check.exit_code == 1

    def test_convert_undefined_exits_2(self, tmp_path):
        src = write_operation(tmp_path, "deph.json", dephasing_operation(2))
        result = self.runner.invoke(main, ["convert", src, "--to", "unitary"])
        assert result.exit_code == 2

    def test_check_identity_cptp(self, tmp_path):
        src = write_operation(tmp_path, "id.json", identity_operation(2))
        result = self.runner.invoke(main, ["check", src, "--predicate", "cptp"])
        assert result.exit_code == 0
        assert json.loads(result.output)["verdicts"]["cptp"] is True

    def test_check_hadamard_incoherent_fails_with_residual(self, tmp_path):
        src = write_operation(tmp_path, "h.json", hadamard_operation())
        result = self.runner.invoke(main, ["check", src, "--predicate", "incoherent"])
        assert result.exit_code == 1
        residual = json.loads(result.output)["residuals"]["max_offdiagonal"]
        assert abs(residual - 0.25) <= 1e-12

    def test_check_max_coherent_cptp_reports_marginal_failure(self, tmp_path):
        # the uniform-modulus Choi is pure but its output marginal is not
        # I/2, so the CPTP predicate comes out false
        from qopcoh.coherence import max_coherent_operation

        src = write_operation(tmp_path, "pm.json", max_coherent_operation(np.zeros(4)))
        result = self.runner.invoke(main, ["check", src, "--predicate", "cptp"])
        assert result.exit_code == 1
        assert json.loads(result.output)["residuals"]["marginal_residual"] >= 0.4

    def test_check_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        result = self.runner.invoke(main, ["check", str(bad), "--predicate", "cptp"])
        assert result.exit_code == 2

    def test_admission_tolerance_env_override(self, tmp_path):
        src = write_operation(tmp_path, "h.json", hadamard_operation())
        result = self.runner.invoke(
            main, ["check", src, "--predicate", "incoherent"], env={"QOPCOH_TOL": "0.3"}
        )
        assert result.exit_code == 0  # 0.25 off-diagonal now inside tolerance

    def test_dephase_output_is_incoherent(self, tmp_path):
        src = write_operation(tmp_path, "h.json", hadamard_operation())
        out = str(tmp_path / "dephased.json")
        result = self.runner.invoke(main, ["dephase", src, "--out", out])
        assert result.exit_code == 0
        check = self.runner.invoke(main, ["check", out, "--predicate", "incoherent"])
        assert check.exit_code == 0


class TestCliClassify:
    def setup_method(self):
        self.runner = CliRunner()

    def test_phase_out_document_is_diso(self, tmp_path):
        src = write_doc(tmp_path, "theta.json", superoperation_to_document(phase_out(2)))
        result = self.runner.invoke(main, ["classify", src])
        assert result.exit_code == 0
        verdicts = json.loads(result.output)["verdicts"]
        assert verdicts == {"in_miso": True, "in_miso_star": True, "in_diso": True}

    def test_hadamard_sandwich_not_miso(self, tmp_path):
        h = hadamard_operation()
        s = Superoperation.from_sandwich(h, h)
        src = write_doc(tmp_path, "hs.json", superoperation_to_document(s))
        result = self.runner.invoke(main, ["classify", src])
        assert json.loads(result.output)["verdicts"]["in_miso"] is False

    def test_incoherent_sandwich_is_miso(self, tmp_path):
        from qopcoh.channel import random_incoherent_cptp

        s = Superoperation.from_sandwich(
            random_incoherent_cptp(2, 1), random_incoherent_cptp(2, 2)
        )
        src = write_doc(tmp_path, "inc.json", superoperation_to_document(s))
        result = self.runner.invoke(main, ["classify", src])
        assert json.loads(result.output)["verdicts"]["in_miso"] is True


class TestCliMeasure:
    def setup_method(self):
        self.runner = CliRunner()

    def test_identity_prints_twelve_digits(self, tmp_path):
        src = write_operation(tmp_path, "id.json", identity_operation(2))
        result = self.runner.invoke(main, ["measure", src])
        assert result.exit_code == 0
        values = json.loads(result.output)["values"]
        assert values["measure"] == "0.707106781187"
        assert values["kind"] == "closed_form_qubit"

    def test_max_coherent_value(self, tmp_path):
        from qopcoh.coherence import max_coherent_operation

        src = write_operation(tmp_path, "pm.json", max_coherent_operation([0.0, 0.5, 1.0, 1.5]))
        result = self.runner.invoke(main, ["measure", src])
        assert json.loads(result.output)["values"]["measure"] == "0.866025403784"

    def test_convex_roof_requires_seed(self, tmp_path):
        src = write_operation(tmp_path, "deph.json", dephasing_operation(2))
        result = self.runner.invoke(main, ["measure", src])
        assert result.exit_code == 2
        result = self.runner.invoke(
            main, ["measure", src, "--method", "convex-roof", "--restarts", "4", "--seed", "9"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert float(doc["values"]["measure"]) <= 1e-6
        assert doc["values"]["kind"] == "convex_roof_upper_bound"

    def test_reports_witness_basis_state(self, tmp_path):
        src = write_operation(tmp_path, "id.json", identity_operation(2))
        result = self.runner.invoke(main, ["measure", src])
        witness = json.loads(result.output)["witness"]
        assert witness == {"basis_input": 0, "basis_output": 0, "linear_index": 0}

    def test_byte_determinism(self, tmp_path):
        # every report command: a second run prints the same bytes, and
        # --timing adds one final wall_time_ms key to that report
        src = write_operation(tmp_path, "deph.json", dephasing_operation(2))
        sop = write_doc(tmp_path, "theta.json", superoperation_to_document(phase_out(2)))
        for args in (
            ["measure", src, "--method", "convex-roof", "--restarts", "4", "--seed", "77"],
            ["check", src, "--predicate", "incoherent"],
            ["classify", sop],
            ["verify", "--suite", "theorem11", "--samples", "1", "--seed", "1"],
        ):
            first = self.runner.invoke(main, args)
            second = self.runner.invoke(main, args)
            assert first.output == second.output
            timed = self.runner.invoke(main, args + ["--timing"])
            assert timed.exit_code == first.exit_code
            doc = json.loads(timed.output)
            assert list(doc)[-1] == "wall_time_ms"
            assert doc.pop("wall_time_ms") >= 0.0
            assert dumps_document(doc) == first.output


class TestCliVerifyAndRandom:
    def setup_method(self):
        self.runner = CliRunner()

    def test_verify_theorem11(self):
        result = self.runner.invoke(main, ["verify", "--suite", "theorem11", "--samples", "1", "--seed", "1"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["verdicts"]["suite_passed"] is True
        assert all(c["pass"] for c in doc["checks"])

    def test_verify_all_passes_and_is_deterministic(self):
        args = ["verify", "--suite", "all", "--samples", "15", "--seed", "2"]
        first = self.runner.invoke(main, args)
        assert first.exit_code == 0
        doc = json.loads(first.output)
        assert doc["verdicts"]["suite_passed"] is True
        second = self.runner.invoke(main, args)
        assert second.output == first.output

    def test_verify_unknown_suite_exits_2(self):
        result = self.runner.invoke(main, ["verify", "--suite", "theorem99", "--seed", "1"])
        assert result.exit_code == 2

    def test_verify_requires_seed(self):
        result = self.runner.invoke(main, ["verify", "--suite", "theorem11"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("suite", ["theorem12", "theorem21", "corollary32", "all"])
    def test_run_suite_rejects_nonpositive_samples(self, suite):
        # with no samples a suite would pass without checking anything
        for samples in (0, -5):
            with pytest.raises(ValueError):
                run_suite(suite, samples, 1)

    def test_random_deterministic(self):
        args = ["random", "--kind", "cptp", "--d", "2", "--seed", "5"]
        first = self.runner.invoke(main, args)
        second = self.runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_random_incoherent_cptp_passes_predicate(self, tmp_path):
        out = str(tmp_path / "inc.json")
        result = self.runner.invoke(
            main, ["random", "--kind", "incoherent-cptp", "--d", "2", "--seed", "3", "--out", out]
        )
        assert result.exit_code == 0
        for predicate in ("incoherent", "cptp"):
            check = self.runner.invoke(main, ["check", out, "--predicate", predicate])
            assert check.exit_code == 0

    def test_random_superop_document_classifiable(self, tmp_path):
        out = str(tmp_path / "s.json")
        result = self.runner.invoke(
            main, ["random", "--kind", "superop", "--d", "2", "--seed", "4", "--out", out]
        )
        assert result.exit_code == 0
        classify = self.runner.invoke(main, ["classify", out])
        assert classify.exit_code == 0

    def test_random_unitary_document(self, tmp_path):
        out = str(tmp_path / "u.json")
        result = self.runner.invoke(
            main, ["random", "--kind", "unitary", "--d", "3", "--seed", "6", "--out", out]
        )
        assert result.exit_code == 0
        op = operation_from_document(load_document(out))
        assert op.kind == "unitary"
        assert op.dim == 3


def _rejected_input(command, tmp_path):
    """Arguments and environment for which the library rejects the command's input."""
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[]")
    deph = write_operation(tmp_path, "deph.json", dephasing_operation(2))
    return {
        "check": ([str(not_an_object), "--predicate", "cptp"], None),
        "classify": ([write_operation(tmp_path, "id.json", identity_operation(2))], None),
        "convert": ([deph, "--to", "unitary"], None),
        "dephase": ([str(not_an_object)], None),
        "measure": ([deph], None),  # the convex roof without a seed
        "random": (["--kind", "unitary", "--seed", "1"], {"QOPCOH_TOL": "abc"}),
        "verify": (["--suite", "theorem11", "--samples", "1", "--seed", "1"], {"QOPCOH_TOL": "abc"}),
    }.get(command)


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_maps_library_errors_to_exit_2(tmp_path, command):
    case = _rejected_input(command, tmp_path)
    if case is None:
        pytest.fail(f"no rejected input for the {command!r} command")
    args, env = case
    result = CliRunner().invoke(main, [command, *args], env=env)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ")
    assert result.stdout == ""


class TestCliFailsClosed:
    """Malformed input of every kind exits 2 with an error line and no report."""

    def setup_method(self):
        self.runner = CliRunner()

    def assert_usage_error(self, args, env=None, message="error:"):
        result = self.runner.invoke(main, args, env=env)
        assert result.exit_code == 2, result.output
        assert message in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--suite", "theorem12", "--samples", "-5", "--seed", "1"],
            ["verify", "--suite", "theorem21", "--samples", "0", "--seed", "1"],
            ["verify", "--suite", "corollary32", "--samples", "0", "--seed", "1"],
            ["verify", "--suite", "theorem12", "--seed", "-1"],
            ["random", "--kind", "unitary", "--seed", "-1"],
            *(["random", "--kind", kind, "--d", "1", "--seed", "1"] for kind in ("unitary", "cptp", "incoherent-cptp", "superop")),
            ["random", "--kind", "cptp", "--env-dim", "0", "--seed", "1"],
        ],
        ids=[
            "samples-negative",
            "samples-zero-theorem21",
            "samples-zero-corollary32",
            "verify-seed",
            "random-seed",
            "random-d-unitary",
            "random-d-cptp",
            "random-d-incoherent-cptp",
            "random-d-superop",
            "random-env-dim",
        ],
    )
    def test_out_of_range_counts_and_seeds(self, args):
        self.assert_usage_error(args, message="Invalid value")

    @pytest.mark.parametrize(
        "extra",
        [["--restarts", "-3"], ["--restarts", "0"], ["--restarts", "257"], ["--max-iter", "-1"], ["--seed", "-1"]],
        ids=["restarts-negative", "restarts-zero", "restarts-over-cap", "max-iter", "seed"],
    )
    def test_measure_out_of_range_options(self, tmp_path, extra):
        src = write_operation(tmp_path, "deph.json", dephasing_operation(2))
        self.assert_usage_error(["measure", src, "--method", "convex-roof", "--seed", "1", *extra], message="Invalid value")

    @pytest.mark.parametrize("raw", ["abc", "nan", "inf", "0", "-1"])
    def test_invalid_admission_tolerance(self, tmp_path, raw):
        doc = operation_to_document(QuantumOperation.from_kraus([np.eye(2)]))
        src = write_doc(tmp_path, "k.json", doc)
        self.assert_usage_error(["check", src, "--predicate", "cptp"], env={"QOPCOH_TOL": raw}, message="error: QOPCOH_TOL")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("d", "x"),
            ("d", None),
            ("d", 2.5),
            ("matrices", 5),
            pytest.param("matrices", [[[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]], id="matrices-beyond-float-range"),
        ],
    )
    def test_malformed_operation_document(self, tmp_path, field, value):
        doc = operation_to_document(identity_operation(2))
        doc[field] = value
        self.assert_usage_error(["check", write_doc(tmp_path, "bad.json", doc), "--predicate", "cptp"])

    @pytest.mark.parametrize(
        "command,kind,options",
        [
            ("check", "unitary", ["--predicate", "cptp"]),
            ("measure", "unitary", []),
            ("convert", "unitary", ["--to", "choi"]),
            ("dephase", "unitary", []),
            ("classify", "matrix", []),
        ],
        ids=["check", "measure", "convert", "dephase", "classify"],
    )
    def test_one_dimensional_document(self, tmp_path, command, kind, options):
        # d = 1 used to pass every reader but dephase, which refused it
        doc = {"schema_version": "1", "kind": kind, "d": 1, "matrices": [[[[1.0, 0.0]]]]}
        self.assert_usage_error([command, write_doc(tmp_path, "d1.json", doc), *options], message="at least 2")

    def test_infinite_unitary_entry(self, tmp_path):
        # run as a user runs it, with numpy's warnings left as warnings: an
        # Inf entry once went through unitarity arithmetic and measured 0
        doc = operation_to_document(identity_operation(2))
        doc["matrices"][0][0][0] = [float("inf"), 0.0]
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qopcoh.__file__)))
        result = subprocess.run(
            [sys.executable, "-m", "qopcoh.cli", "measure", str(path)], capture_output=True, text=True, env=env
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert result.stdout == ""

    @pytest.mark.parametrize("d", ["1", "0"])
    def test_random_superop_names_its_dimension(self, d):
        # click rejects the option before any generator runs
        result = self.runner.invoke(main, ["random", "--kind", "superop", "--d", d, "--seed", "1"])
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '--d': {d} is not in the range x>=2." in result.stderr
        assert "env" not in result.stderr
        assert result.stdout == ""

    def test_sandwich_declaring_another_d(self, tmp_path):
        out = str(tmp_path / "s.json")
        self.runner.invoke(main, ["random", "--kind", "superop", "--d", "2", "--seed", "4", "--out", out])
        doc = json.loads((tmp_path / "s.json").read_text())
        doc["d"] = 3
        self.assert_usage_error(["classify", write_doc(tmp_path, "s3.json", doc)])

    def test_nan_superoperation_matrix(self, tmp_path):
        s = Superoperation.from_matrix(phase_out(2).matrix, 2)
        doc = superoperation_to_document(s)
        doc["matrices"][0][1][2] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        self.assert_usage_error(["classify", str(path)])

    @pytest.mark.parametrize(
        "content",
        ['{"kind": "caf\xe9"}'.encode("latin-1"), b"[" * 100_000 + b"]" * 100_000, b"1" * 5000],
        ids=["non-utf8", "nested-too-deep", "integer-too-long"],
    )
    def test_undecodable_file(self, tmp_path, content):
        path = tmp_path / "in.json"
        path.write_bytes(content)
        self.assert_usage_error(["check", str(path), "--predicate", "cptp"])

    @pytest.mark.parametrize("where", ["missing-dir/x.json", "."], ids=["missing-dir", "directory"])
    @pytest.mark.parametrize("command", ["dephase", "convert", "random"])
    def test_unwritable_out_path(self, tmp_path, command, where):
        src = write_operation(tmp_path, "id.json", identity_operation(2))
        args = {"dephase": [src], "convert": [src, "--to", "choi"], "random": ["--kind", "unitary", "--seed", "1"]}
        out = str(tmp_path / where)
        self.assert_usage_error([command, *args[command], "--out", out], message=f"error: cannot write {out}")
