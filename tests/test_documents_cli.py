"""JSON document formats and the command-line surface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import qopcoh
from qopcoh import suites, superop
from qopcoh.channel import (
    QuantumOperation,
    dephasing_operation,
    hadamard_operation,
    identity_operation,
    mix_operations,
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
from qopcoh.exceptions import ParseError, QopcohError
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

        op = QuantumOperation.from_choi(ChoiState(np.diag([1.0, 0, 0, 0])))
        src = write_operation(tmp_path, "proj.json", op)
        out = str(tmp_path / "kraus.json")
        result = self.runner.invoke(main, ["convert", src, "--to", "kraus", "--out", out])
        assert result.exit_code == 0
        check = self.runner.invoke(main, ["check", out, "--predicate", "cptp"])
        assert check.exit_code == 1

    @pytest.mark.parametrize(
        "op",
        [hadamard_operation(), dephasing_operation(2), QuantumOperation.from_choi(dephasing_operation(2).choi)],
        ids=["unitary", "kraus", "choi"],
    )
    def test_convert_to_own_kind_writes_the_same_document(self, tmp_path, op):
        src = write_operation(tmp_path, "op.json", op)
        result = self.runner.invoke(main, ["convert", src, "--to", op.kind])
        assert result.exit_code == 0
        assert result.output == open(src).read()

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
        # QOPCOH_TOL once widened the admission tolerance; verdicts now ignore it
        src = write_operation(tmp_path, "h.json", hadamard_operation())
        result = self.runner.invoke(
            main, ["check", src, "--predicate", "incoherent"], env={"QOPCOH_TOL": "0.3"}
        )
        assert result.exit_code == 1  # the 0.25 off-diagonal stays outside the fixed tolerance
        mixed = mix_operations([0.6, 0.4], [hadamard_operation(), identity_operation(2)])
        args = ["measure", write_operation(tmp_path, "mix.json", mixed), "--seed", "1"]
        unset = self.runner.invoke(main, args, env={"QOPCOH_TOL": None})
        assert unset.exit_code == 0
        assert json.loads(unset.stdout)["values"]["kind"] == "convex_roof_upper_bound"
        assert self.runner.invoke(main, args, env={"QOPCOH_TOL": "0.5"}).stdout_bytes == unset.stdout_bytes

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

    def test_qubit_closed_form_method(self, tmp_path):
        src = write_operation(tmp_path, "h.json", hadamard_operation())
        result = self.runner.invoke(main, ["measure", src, "--method", "qubit-closed-form"])
        assert result.exit_code == 0
        assert json.loads(result.output)["values"] == {"measure": "0.866025403784", "kind": "closed_form_qubit"}

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
        assert op.d == 3


def _rejected_input(command, tmp_path, monkeypatch):
    """Arguments for which the library rejects the command's input."""
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[]")
    deph = write_operation(tmp_path, "deph.json", dephasing_operation(2))
    if command == "verify":
        # every suite runs on the library's own generators, so force the failure
        def failing_suite(suite, samples, seed):
            raise QopcohError("suite failed to run")

        monkeypatch.setattr("qopcoh.cli.run_suite", failing_suite)
    return {
        "check": [str(not_an_object), "--predicate", "cptp"],
        "classify": [write_operation(tmp_path, "id.json", identity_operation(2))],
        "convert": [deph, "--to", "unitary"],
        "dephase": [str(not_an_object)],
        "measure": [deph],  # the convex roof without a seed
        "random": ["--kind", "unitary", "--seed", "1", "--out", str(tmp_path / "missing" / "u.json")],
        "verify": ["--suite", "theorem11", "--samples", "1", "--seed", "1"],
    }.get(command)


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_maps_library_errors_to_exit_2(tmp_path, monkeypatch, command):
    args = _rejected_input(command, tmp_path, monkeypatch)
    if args is None:
        pytest.fail(f"no rejected input for the {command!r} command")
    result = CliRunner().invoke(main, [command, *args])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ")
    assert result.stdout == ""


class TestCliFailsClosed:
    """Malformed input of every kind exits 2 with an error line and no report."""

    def setup_method(self):
        self.runner = CliRunner()

    def assert_usage_error(self, args, message="error:"):
        result = self.runner.invoke(main, args)
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
        [
            ["--restarts", "-3"],
            ["--restarts", "0"],
            ["--restarts", "257"],
            ["--max-iter", "-1"],
            ["--max-iter", "101"],
            ["--seed", "-1"],
        ],
        ids=["restarts-negative", "restarts-zero", "restarts-over-cap", "max-iter", "max-iter-over-cap", "seed"],
    )
    def test_measure_out_of_range_options(self, tmp_path, extra):
        src = write_operation(tmp_path, "deph.json", dephasing_operation(2))
        self.assert_usage_error(["measure", src, "--method", "convex-roof", "--seed", "1", *extra], message="Invalid value")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("d", "x"),
            ("d", None),
            ("d", 2.5),
            ("matrices", 5),
            pytest.param("matrices", [[[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]], id="matrices-beyond-float-range"),
            pytest.param("matrices", [[[[True, False], [0, 0]], [[0, 0], [1, 0]]]], id="matrices-boolean-entry"),
            pytest.param("matrices", [[[["1", 0], [0, 0]], [[0, 0], [1, 0]]]], id="matrices-string-entry"),
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

    @pytest.mark.parametrize(
        "args", [["--kind", "unitary", "--d", "100000"], ["--kind", "cptp", "--env-dim", "100000"]], ids=["d", "env-dim"]
    )
    def test_request_too_large_for_memory(self, monkeypatch, args):
        # numpy raises MemoryError when it cannot allocate; no test asks it for that much
        def unallocatable(d, rng):
            raise MemoryError(f"Unable to allocate an array of shape ({d}, {d})")

        monkeypatch.setattr("qopcoh.channel.haar_unitary", unallocatable)
        self.assert_usage_error(["random", *args, "--seed", "1"], message="error: the request is too large for memory")

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
        s = Superoperation.from_matrix(phase_out(2).matrix)
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


# ---------------------------------------------------------------------------
# Seeded mutation battery: every malformed document exits 2, with one error line
# ---------------------------------------------------------------------------

DEEP = "\x00deep"  # replaced by a list nested far beyond the JSON reader's recursion limit
READERS = {
    "operation": (
        ["check", "--predicate", "cptp"],
        ["measure", "--seed", "1", "--restarts", "1", "--max-iter", "1"],
        ["convert", "--to", "choi"],
        ["dephase"],
    ),
    "superoperation": (["classify"],),
}
# A JSON value of the wrong type for every field a reader reads, and for a matrix entry.
WRONG_FIELD_VALUES = (None, "x", True, 1.5, [], {})
WRONG_ENTRY_VALUES = (None, "x", "1", True, False, [], {})


def _valid_documents() -> dict:
    """A valid document of every kind, by label, with the family of commands that read it."""
    from qopcoh.channel import random_cptp, random_unitary
    from qopcoh.superop import random_sandwich

    docs = {}
    for d in (2, 3):
        cptp = random_cptp(d, 2, d)
        docs[f"unitary-d{d}"] = operation_to_document(random_unitary(d, d))
        docs[f"kraus-d{d}"] = operation_to_document(cptp)
        docs[f"choi-d{d}"] = operation_to_document(QuantumOperation.from_choi(cptp.choi))
    docs["sandwich-d2"] = superoperation_to_document(random_sandwich(2, 1))
    docs["kraus_on_choi-d2"] = superoperation_to_document(phase_out(2))
    docs["matrix-d2"] = superoperation_to_document(Superoperation.from_matrix(phase_out(2).matrix))
    return {
        label: (doc, "superoperation" if doc["kind"] in ("sandwich", "kraus_on_choi", "matrix") else "operation")
        for label, doc in docs.items()
    }


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _objects(doc) -> list:
    """The document and every operation document nested in it: the objects a reader reads fields from."""
    return [doc, *(obj for half in ("post", "pre") if half in doc for obj in _objects(doc[half]))]


def _read_fields(obj) -> tuple:
    """The fields a reader reads; any other field (metadata, matrices on a sandwich) is ignored by design."""
    return ("schema_version", "kind", "d", *(("post", "pre") if obj["kind"] == "sandwich" else ("matrices",)))


def _entry(doc, rng):
    """A random matrix entry, as (its [re, im] pair, the component index)."""
    obj = _pick(rng, [o for o in _objects(doc) if "matrices" in o])
    row = _pick(rng, _pick(rng, obj["matrices"]))
    return _pick(rng, row), int(rng.integers(2))


def _set_field_or_entry(doc, rng, field_value, entry_value, fields=None):
    if rng.uniform() < 0.5:
        obj = _pick(rng, _objects(doc))
        obj[_pick(rng, fields or _read_fields(obj))] = field_value
    else:
        pair, c = _entry(doc, rng)
        pair[c] = entry_value


def _one_dimensional(obj):
    """Make obj a valid document of d = 1: 1x1 matrices, halves of d = 1."""
    obj["d"] = 1
    if obj["kind"] == "sandwich":
        for half in ("post", "pre"):
            obj[half] = {"schema_version": "1", "kind": "unitary", "d": 1, "matrices": [[[[1.0, 0.0]]]]}
    else:
        obj["matrices"] = [[[[1.0, 0.0]]]]


def _mutate(kind: str, doc: dict, rng) -> bytes:
    """Apply one mutation from the list in ``MUTATIONS`` at rng-chosen sites; return the file's bytes."""
    obj = _pick(rng, _objects(doc))
    if kind == "drop-field":
        del obj[_pick(rng, _read_fields(obj))]
    elif kind == "wrong-type":
        _set_field_or_entry(doc, rng, _pick(rng, WRONG_FIELD_VALUES), _pick(rng, WRONG_ENTRY_VALUES))
    elif kind == "huge-integer":
        _set_field_or_entry(doc, rng, 10**400, 10**400, fields=("d",))
    elif kind == "non-finite":
        value = _pick(rng, (float("nan"), float("inf"), float("-inf")))
        _set_field_or_entry(doc, rng, value, value, fields=("d",))
    elif kind == "huge-finite":
        pair, c = _entry(doc, rng)
        pair[c] = _pick(rng, (1e200, -1e200))
    elif kind == "ragged":
        pair, c = _entry(doc, rng)
        del pair[c]
    elif kind == "wrong-shape":
        matrix = _pick(rng, _pick(rng, [o for o in _objects(doc) if "matrices" in o])["matrices"])
        how = _pick(rng, ("row", "column", "both"))
        if how in ("row", "both"):
            del matrix[-1]
        if how in ("column", "both"):
            for row in matrix:
                del row[-1]
    elif kind == "d-mismatch":
        obj["d"] = _pick(rng, [d for d in (2, 3, 4) if d != obj["d"]])
    elif kind == "bool-d":
        obj["d"] = bool(rng.integers(2))
    elif kind == "d-one":
        _one_dimensional(obj)
    elif kind == "non-object":
        value = _pick(rng, ([], "x", 5, None, [dict(obj)]))
        if obj is doc:
            return json.dumps(value).encode()
        doc["post" if doc["post"] is obj else "pre"] = value  # only a sandwich nests objects, one level deep
    elif kind == "deep-nesting":
        _set_field_or_entry(doc, rng, DEEP, DEEP)
        return json.dumps(doc).replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000).encode()
    elif kind == "non-utf8":
        text = json.dumps(doc).encode()
        at = int(rng.integers(len(text) + 1))
        return text[:at] + _pick(rng, (b"\xff", b"\xc3", b"\xe9")) + text[at:]
    else:
        raise AssertionError(f"unknown mutation {kind!r}")
    return json.dumps(doc).encode()


MUTATIONS = (
    "drop-field",
    "wrong-type",
    "huge-integer",
    "non-finite",
    "ragged",
    "wrong-shape",
    "d-mismatch",
    "bool-d",
    "d-one",
    "non-object",
    "deep-nesting",
    "non-utf8",
    "huge-finite",
)


def test_mutation_battery(tmp_path):
    """Every reader of every document kind exits 2 on each seeded mutant of a valid document.

    The unmutated documents are read first and must not exit 2, so each
    rejection below is owed to its mutation.  Each mutant must print one
    "error: " line on stderr, no traceback and no report.
    """
    rng = np.random.default_rng(2024)
    runner = CliRunner()
    failures = []
    for label, (valid, family) in _valid_documents().items():
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(valid))
        for command, *options in READERS[family]:
            result = runner.invoke(main, [command, str(path), *options])
            assert result.exit_code in (0, 1), f"{command} {label}: {result.stderr}"
        for kind in MUTATIONS:
            for draw in range(3):
                path = tmp_path / f"{label}-{kind}-{draw}.json"
                path.write_bytes(_mutate(kind, json.loads(json.dumps(valid)), rng))
                for command, *options in READERS[family]:
                    result = runner.invoke(main, [command, str(path), *options])
                    if not (
                        result.exit_code == 2
                        and result.stderr.startswith("error: ")
                        and "Traceback" not in result.stderr
                        and result.stdout == ""
                    ):
                        failures.append(f"{command} {path.name}: exit {result.exit_code}, {result.stderr[:120]!r}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("suite", ["theorem21", "all"])
def test_verify_reports_a_raised_self_check_as_a_failed_check(monkeypatch, suite):
    # a block kernel that rejects every member makes the sampler raise: only a bug reaches this path
    monkeypatch.setattr(superop, "_block_residuals", lambda matrices, d: np.ones((*matrices.shape[:-2], 2)))
    result = CliRunner().invoke(main, ["verify", "--suite", suite, "--samples", "1", "--seed", "1"])
    assert result.exit_code == 1
    checks = json.loads(result.stdout)["checks"]
    failed = {
        "name": "theorem21 ran without error",
        "pass": False,
        "details": {"error": "the sampled miso candidate failed its class check"},
    }
    assert [c for c in checks if not c["pass"]] == [failed]
    if suite == "all":
        # the other suites still run, in their order, from the same seed
        monkeypatch.undo()
        names = {name: [c["name"] for c in run_suite(name, 1, 1)] for name in suites.SUITE_NAMES if name != "all"}
        names["theorem21"] = [failed["name"]]
        assert [c["name"] for c in checks] == [name for group in names.values() for name in group]


def test_verify_exits_2_when_a_suite_runs_out_of_memory(monkeypatch):
    def no_memory(**kwargs):
        raise MemoryError

    monkeypatch.setattr(suites, "verify_axioms", no_memory)
    result = CliRunner().invoke(main, ["verify", "--suite", "axioms", "--samples", "1", "--seed", "1"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: the request is too large for memory")
    assert result.stdout == ""
