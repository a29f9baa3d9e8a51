"""The benchmark's checks must reject corrupted outputs.

Each test takes a real qopcoh output, shows that its check accepts it, then
corrupts one field and shows that the check rejects it.  Run with

    python3 -m pytest qopbench
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

from qopcoh import QuantumOperation, classify, measure_coherence, mf_single_qubit_unitary  # noqa: E402
from qopcoh.superop import random_sandwich, sample_class_member  # noqa: E402


RUN_CLI = workloads.CliRunner()


@pytest.fixture(scope="module")
def roof():
    rng = np.random.default_rng(5)
    choi = checks.choi_of_kraus(workloads.stinespring_kraus(2, 3, rng))
    result = measure_coherence(QuantumOperation.from_choi(choi, 2), method="convex-roof", restarts=3, max_iter=150, seed=1)
    fields = dict(
        choi=choi,
        d=2,
        value=result.value,
        weights=np.array(result.ensemble.weights),
        members=[m.choi.matrix for m in result.ensemble.members],
        history=list(result.history),
        restarts=3,
    )
    assert checks.check_roof(**fields) == []
    return fields


def _corrupt(fields, **changes):
    out = copy.deepcopy(fields)
    out.update(changes)
    return out


def test_roof_rejects_a_perturbed_weight(roof):
    w = roof["weights"].copy()
    w[0] += 1e-6
    assert checks.check_roof(**_corrupt(roof, weights=w))


def test_roof_rejects_reweighting_that_keeps_the_sum(roof):
    w = roof["weights"].copy()
    w[0] += 1e-6
    w[1] -= 1e-6
    assert checks.check_roof(**_corrupt(roof, weights=w))


def test_roof_rejects_a_mixed_member(roof):
    members = list(roof["members"])
    members[0] = 0.5 * members[0] + 0.5 * np.eye(4) / 4
    assert checks.check_roof(**_corrupt(roof, members=members))


def test_roof_rejects_a_value_the_ensemble_does_not_attain(roof):
    assert checks.check_roof(**_corrupt(roof, value=roof["value"] - 1e-6))


def test_roof_rejects_a_rising_history(roof):
    history = list(roof["history"])
    history[-1] = history[0] + 0.1
    assert checks.check_roof(**_corrupt(roof, history=history))


def test_roof_rejects_a_value_above_the_start_ensemble(roof):
    assert checks.check_roof(**roof, convex_bound=roof["value"] - 1e-6)


def test_roof_accepts_a_zero_roof_on_an_incoherent_mixture():
    rng = np.random.default_rng(2)
    choi = 0.4 * checks.choi_of_kraus(workloads.incoherent_kraus(2, rng)) + 0.6 * checks.choi_of_kraus(
        workloads.incoherent_kraus(2, rng)
    )
    result = measure_coherence(QuantumOperation.from_choi(choi, 2), method="convex-roof", restarts=2, max_iter=50, seed=3)
    members = [m.choi.matrix for m in result.ensemble.members]
    assert checks.check_roof(choi, 2, result.value, result.ensemble.weights, members, result.history, 2) == []


@pytest.mark.parametrize("d", [2, 3])
def test_classification_rejects_a_flipped_verdict(d):
    s = random_sandwich(d, np.random.default_rng(d))
    report = vars(classify(s))
    assert checks.check_classification(s.matrix, d, report) == []
    for key in ("in_miso", "in_miso_star", "in_diso"):
        assert checks.check_classification(s.matrix, d, dict(report, **{key: not report[key]}))


def test_classification_rejects_a_perturbed_residual():
    s = sample_class_member("diso", 2, np.random.default_rng(4))
    report = vars(classify(s))
    assert report["in_diso"] and checks.check_classification(s.matrix, 2, report) == []
    assert checks.check_classification(s.matrix, 2, dict(report, miso_star_residual=1e-11))


def test_closed_form_check_rejects_a_wrong_value():
    u = workloads.haar_unitary(2, np.random.default_rng(7))
    value = mf_single_qubit_unitary(u).value
    assert checks.check_qubit_closed_form(u, value) == []
    assert checks.check_qubit_closed_form(u, value + 1e-8)


def test_verify_check_rejects_failed_empty_and_short_suites():
    code, stdout, _ = RUN_CLI(["verify", "--suite", "theorem12", "--samples", "5", "--seed", "3"])
    assert checks.check_verify("theorem12", 5, code, stdout) == []
    assert checks.check_verify("theorem12", 5, 1, stdout)
    doc = json.loads(stdout)
    failed = copy.deepcopy(doc)
    failed["checks"][0]["pass"] = False
    assert checks.check_verify("theorem12", 5, code, json.dumps(failed))
    empty = dict(doc, checks=[])
    assert checks.check_verify("theorem12", 5, code, json.dumps(empty))
    short = copy.deepcopy(doc)
    short["checks"][0]["details"]["channels"] = -5
    assert checks.check_verify("theorem12", 5, code, json.dumps(short))
    assert checks.check_verify("theorem12", 5, code, "Traceback (most recent call last):")


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    rng = np.random.default_rng(11)
    root = tmp_path_factory.mktemp("docs")
    kraus = workloads.stinespring_kraus(3, 2, rng)
    post, pre = workloads.stinespring_kraus(2, 2, rng), workloads.stinespring_kraus(2, 1, rng)
    paths = {}
    for name, doc in (
        ("cptp", workloads.operation_doc("kraus", kraus)),
        ("hadamard", workloads.operation_doc("unitary", [workloads.HADAMARD])),
        ("sop", workloads.sandwich_doc(post, pre)),
    ):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    paths["out"] = root / "out.json"
    return paths, kraus, checks.sandwich_choi_kraus(post, pre)


def test_check_command_rejects_a_wrong_exit_code(docs):
    paths, kraus, _ = docs
    for predicate, code in (("cptp", 0), ("incoherent", 1)):
        out = RUN_CLI(["check", str(paths["cptp"]), "--predicate", predicate])
        assert out[0] == code
        assert checks.check_check_report(out[0], out[1], predicate, kraus) == []
        assert checks.check_check_report(1 - code, out[1], predicate, kraus)
    doc = json.loads(out[1])
    doc["verdicts"]["incoherent"] = True
    assert checks.check_check_report(1, json.dumps(doc), "incoherent", kraus)


def test_written_choi_check_rejects_coherence_left_by_dephase(docs):
    paths, kraus, _ = docs
    code, stdout, _ = RUN_CLI(["dephase", str(paths["cptp"]), "--out", str(paths["out"])])
    written = paths["out"].read_text()
    assert checks.check_written_choi(code, stdout, written, kraus, dephased=True) == []
    assert checks.check_written_choi(2, stdout, written, kraus, dephased=True)
    doc = json.loads(written)
    doc["matrices"][0][0][1] = [1e-15, 0.0]
    assert checks.check_written_choi(code, stdout, json.dumps(doc), kraus, dephased=True)
    assert checks.check_written_choi(code, stdout, "{", kraus, dephased=True)


def test_measure_and_classify_checks_reject_wrong_reports(docs):
    paths, _, choi_kraus = docs
    code, stdout, _ = RUN_CLI(["measure", str(paths["hadamard"])])
    assert checks.check_measure_report(code, stdout, checks.SQRT3_OVER_2) == []
    assert checks.check_measure_report(code, stdout, checks.SQRT2_OVER_2)
    assert checks.check_measure_report(1, stdout, checks.SQRT3_OVER_2)
    code, stdout, _ = RUN_CLI(["classify", str(paths["sop"])])
    assert checks.check_classify_report(code, stdout, 2, choi_kraus) == []
    doc = json.loads(stdout)
    doc["verdicts"]["in_miso"] = not doc["verdicts"]["in_miso"]
    assert checks.check_classify_report(code, json.dumps(doc), 2, choi_kraus)
    assert checks.check_classify_report(2, stdout, 2, choi_kraus)


def test_usage_error_check_wants_exit_2_and_no_report():
    assert checks.check_usage_error(2, "", "error: bad document\n") == []
    assert checks.check_usage_error(1, "", "Traceback (most recent call last):\n")
    assert checks.check_usage_error(0, '{"schema_version": "1"}', "")


def test_pure_measure_keeps_digits_near_an_incoherent_state():
    assert checks.pure_measure([1 - 1e-16, 1e-16 / 3, 1e-16 / 3, 1e-16 / 3]) == pytest.approx(1e-8)
    assert checks.pure_measure(np.diag([1.0, 0.0, 0.0, 0.0])) == 0.0
    assert checks.unitary_measure(workloads.HADAMARD) == pytest.approx(math.sqrt(3) / 2, abs=1e-15)


def test_tracer_reaches_every_namespace_and_restores_it():
    import qopcoh
    from qopcoh import suites

    before = (suites._SUITES["theorem11"], qopcoh.eig_hermitian, qopcoh.QuantumOperation)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        code, _, _ = RUN_CLI(["verify", "--suite", "theorem11", "--samples", "1", "--seed", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (suites._SUITES["theorem11"], qopcoh.eig_hermitian, qopcoh.QuantumOperation) == before
    metrics = tracer.per_layer_metrics(1)
    assert metrics["suites.theorem11.calls"][0] == 1
    assert metrics["cli.verify.calls"][0] == 1
    assert metrics["superop.Superoperation.matrix.calls"][0] > 0
    assert metrics["linalg.sqrt_psd.calls"][0] == 0
    assert {f"{layer}.self_ms" for layer in LAYERS} <= set(metrics)
    # self times never exceed the wall time of the outermost span
    outer = max(e - s for s, e in zip(tracer.start, tracer.end))
    assert sum(tracer.self_s.values()) <= outer + 1e-9
