"""Output checks for the benchmark, written apart from qopcoh.

Every check here recomputes what it needs with plain numpy from the
inputs the benchmark drew, or tests a property the method must have.
None of them calls into qopcoh, and none compares against a recorded copy
of today's output.  Each returns a list of problems; an empty list means
the output passed.

Basis convention (the paper's, and qopcoh's): the Choi-space ket |i a> is
linear index ``i*d + a``, and superoperation matrices act on column-stacked
Choi matrices.
"""

import json
import math

import numpy as np

ADMISSION_TOL = 1e-9
SQRT2_OVER_2 = math.sqrt(2.0) / 2.0
SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


# ---------------------------------------------------------------------------
# Reference constructions
# ---------------------------------------------------------------------------


def choi_of_kraus(kraus) -> np.ndarray:
    """C = sum_n (I (x) K_n)|phi><phi|(I (x) K_n)+ with |phi> = sum_i |ii>/sqrt d.

    The vector (I (x) K)|phi> has entry K[a, i]/sqrt d at index i*d + a.
    """
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    d = ks[0].shape[0]
    c = np.zeros((d * d, d * d), dtype=complex)
    for k in ks:
        v = k.T.reshape(-1) / math.sqrt(d)
        c += np.outer(v, v.conj())
    return c


def superop_matrix(choi_kraus) -> np.ndarray:
    """Matrix of C -> sum K C K+ on column-stacked C: sum conj(K) (x) K."""
    return sum(np.kron(np.conj(k), k) for k in choi_kraus)


def sandwich_choi_kraus(post_kraus, pre_kraus) -> list:
    """Choi-space Kraus set {pre_m^T (x) post_p} of Phi -> post o Phi o pre."""
    return [np.kron(np.asarray(b).T, np.asarray(a)) for a in post_kraus for b in pre_kraus]


def mask_residuals(m: np.ndarray, d: int) -> tuple:
    """(r_miso, r_star) = (max|M[off, diag]|, max|M[diag, off]|).

    Phase-out keeps exactly the vec indices j*(d^2 + 1) of the Choi
    diagonal, so M T - T M T and T M - T M T are these two sub-blocks.
    """
    dd = d * d
    diag = np.arange(dd) * (dd + 1)
    off = np.setdiff1d(np.arange(dd * dd), diag)
    return float(np.max(np.abs(m[np.ix_(off, diag)]))), float(np.max(np.abs(m[np.ix_(diag, off)])))


def pure_measure(diagonal) -> float:
    """sqrt(1 - max_k C_kk) of a trace-one pure Choi state, from its diagonal.

    1 - max_k C_kk is taken as the sum of the other diagonal entries: near
    an incoherent state the subtraction cancels, and 1 - (1 - 5e-17) has a
    root of 7e-9, while the sum keeps the true size of what is left.
    """
    diag = np.sort(np.real(np.ravel(diagonal)))
    return math.sqrt(max(float(diag[:-1].sum()), 0.0))


def unitary_measure(u: np.ndarray) -> float:
    """Measure of a unitary from the diagonal of its Choi state |U[a,i]|^2 / d."""
    u = np.asarray(u, dtype=complex)
    return pure_measure(np.abs(u) ** 2 / u.shape[0])


# ---------------------------------------------------------------------------
# roof: convex-roof results
# ---------------------------------------------------------------------------


def check_roof(choi, d, value, weights, members, history, restarts, convex_bound=None) -> list:
    """Rebuild a returned ensemble and test what the estimator guarantees.

    ``members`` are the member Choi matrices.  ``convex_bound`` is, when
    known, the value of an ensemble the estimator starts from, so its
    result may not exceed it.
    """
    problems = []
    c = np.asarray(choi, dtype=complex)
    w = np.asarray(weights, dtype=float)
    mats = [np.asarray(m, dtype=complex) for m in members]
    if w.size == 0 or w.size != len(mats):
        return [f"ensemble has {w.size} weights for {len(mats)} members"]
    if np.any(w < 0) or abs(float(w.sum()) - 1.0) > ADMISSION_TOL:
        problems.append(f"weights not a distribution (min {w.min():.3e}, sum {w.sum():.12f})")
    for n, m in enumerate(mats):
        ev = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if ev[-1] < 1.0 - ADMISSION_TOL or ev[0] < -ADMISSION_TOL or abs(np.trace(m).real - 1.0) > ADMISSION_TOL:
            problems.append(f"member {n} is not a rank-one state (eigenvalues {ev[0]:.3e}..{ev[-1]:.12f})")
    recon = sum(wn * m for wn, m in zip(w, mats))
    residual = float(np.max(np.abs(recon - c)))
    if residual > 1e-8:
        problems.append(f"ensemble reconstructs the input only to {residual:.3e}")
    attained = sum(wn * pure_measure(np.diag(m)) for wn, m in zip(w, mats))
    if not abs(attained - value) <= 1e-9:
        problems.append(f"reported {value!r} but the ensemble attains {attained!r}")
    if not 0.0 <= value <= math.sqrt(1.0 - 1.0 / d**2) + 1e-12:
        problems.append(f"value {value!r} outside [0, sqrt(1 - 1/d^2)]")
    h = np.asarray(history, dtype=float)
    if h.size != restarts:
        problems.append(f"history has {h.size} entries for {restarts} restarts")
    elif np.any(np.diff(h) > 0) or value > h[-1] + 1e-12:
        problems.append("best value went up across restarts")
    if convex_bound is not None and value > convex_bound + 1e-9:
        problems.append(f"value {value!r} exceeds the start ensemble's {convex_bound!r}")
    return problems


# ---------------------------------------------------------------------------
# suites: verify reports and the spot checks the benchmark draws itself
# ---------------------------------------------------------------------------


def check_qubit_closed_form(u, value) -> list:
    expected = unitary_measure(u)
    if not abs(value - expected) <= 1e-10:
        return [f"closed form {value!r} != sqrt(1 - max diag) {expected!r}"]
    return []


def check_classification(m, d, report: dict) -> list:
    """Classify residuals against the mask formulas; verdicts against 1e-9."""
    problems = []
    r_miso, r_star = mask_residuals(np.asarray(m), d)
    for key, expected in (
        ("miso_residual", r_miso),
        ("miso_star_residual", r_star),
        ("diso_residual", max(r_miso, r_star)),
    ):
        if not abs(report[key] - expected) <= 1e-12:
            problems.append(f"{key} {report[key]!r} != mask formula {expected!r}")
    verdicts = {
        "in_miso": r_miso <= ADMISSION_TOL,
        "in_miso_star": r_star <= ADMISSION_TOL,
        "in_diso": r_miso <= ADMISSION_TOL and r_star <= ADMISSION_TOL,
    }
    for key, expected in verdicts.items():
        if report[key] is not expected:
            problems.append(f"{key} is {report[key]!r}, residuals say {expected!r}")
    return problems


def parse_report(stdout: str):
    """The JSON report a read command prints, or None when it is not one."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(doc, dict) or doc.get("schema_version") != "1" or "command" not in doc:
        return None
    return doc


def check_verify(suite, samples, code, stdout) -> list:
    """A verify pass: exit 0, every check passed, and it checked something."""
    doc = parse_report(stdout)
    if doc is None:
        return [f"verify {suite}: output is not a JSON report"]
    problems = []
    if code != 0:
        problems.append(f"verify {suite}: exit code {code}, expected 0")
    checks = doc.get("checks") or []
    if not checks:
        problems.append(f"verify {suite}: no checks ran")
    failed = [c["name"] for c in checks if c.get("pass") is not True]
    if failed or doc["verdicts"].get("suite_passed") is not True:
        problems.append(f"verify {suite}: failed checks {failed}")
    if suite == "theorem12":
        counts = [c["details"].get("channels") for c in checks]
        if counts != [samples, max(1, samples * 2 // 5)]:
            problems.append(f"verify theorem12 checked {counts} channels for {samples} samples")
    if suite in ("corollary32", "theorem21"):
        unit = "unitaries" if suite == "corollary32" else "pairs"
        if not any(f"({samples} {unit})" in c["name"] for c in checks):
            problems.append(f"verify {suite}: no check over {samples} {unit}")
    return problems


# ---------------------------------------------------------------------------
# cli: one checker per command kind
# ---------------------------------------------------------------------------


def _matrix_from_json(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[:, :, 0] + 1j * a[:, :, 1]


def check_exit(code, expected) -> list:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def check_check_report(code, stdout, predicate, kraus) -> list:
    """``check``: verdict and residuals from the channel's own Choi matrix."""
    doc = parse_report(stdout)
    if doc is None:
        return ["check: output is not a JSON report"]
    c = choi_of_kraus(kraus)
    d = np.asarray(kraus[0]).shape[0]
    if predicate == "cptp":
        min_eig = float(np.linalg.eigvalsh(c)[0])
        marginal = float(np.max(np.abs(np.trace(c.reshape(d, d, d, d), axis1=1, axis2=3) - np.eye(d) / d)))
        holds = min_eig >= -ADMISSION_TOL and marginal <= ADMISSION_TOL
        expected = {"min_eigenvalue": min_eig, "marginal_residual": marginal}
    else:
        off = float(np.max(np.abs(c - np.diag(np.diag(c)))))
        holds = off <= ADMISSION_TOL
        expected = {"max_offdiagonal": off}
    problems = check_exit(code, 0 if holds else 1)
    if doc["verdicts"].get(predicate) is not holds:
        problems.append(f"check {predicate}: verdict {doc['verdicts'].get(predicate)!r}, expected {holds}")
    for key, value in expected.items():
        if not abs(doc["residuals"].get(key, math.nan) - value) <= 1e-10:
            problems.append(f"check {predicate}: {key} {doc['residuals'].get(key)!r} != {value!r}")
    return problems


def check_written_choi(code, stdout, written, kraus, dephased) -> list:
    """``dephase --out`` / ``convert --to choi --out``: the Choi document written.

    A dephased document must keep the input's Choi diagonal and have every
    off-diagonal entry exactly zero; a converted one must equal the input's
    Choi matrix.
    """
    problems = check_exit(code, 0)
    if stdout:
        problems.append("command with --out printed to stdout")
    try:
        doc = json.loads(written)
        c = _matrix_from_json(doc["matrices"][0])
    except (ValueError, KeyError, IndexError, TypeError):
        return problems + ["written file is not a Choi document"]
    ref = choi_of_kraus(kraus)
    if doc.get("kind") != "choi" or c.shape != ref.shape:
        return problems + [f"written document is {doc.get('kind')!r} of shape {c.shape}"]
    if dephased:
        off = c - np.diag(np.diag(c))
        if np.any(off != 0):
            problems.append(f"dephased Choi has off-diagonal entries up to {np.max(np.abs(off)):.3e}")
        gap = float(np.max(np.abs(np.diag(c) - np.diag(ref))))
    else:
        gap = float(np.max(np.abs(c - ref)))
    if gap > 1e-12:
        problems.append(f"written Choi matrix differs from the input's by {gap:.3e}")
    return problems


def check_measure_report(code, stdout, expected_value) -> list:
    doc = parse_report(stdout)
    if doc is None:
        return ["measure: output is not a JSON report"]
    problems = check_exit(code, 0)
    try:
        value = float(doc["values"]["measure"])
    except (KeyError, TypeError, ValueError):
        return problems + ["measure: report has no numeric measure"]
    if doc["values"].get("kind") != "closed_form_qubit":
        problems.append(f"measure: kind {doc['values'].get('kind')!r} on a qubit unitary")
    if not abs(value - expected_value) <= 1e-11:
        problems.append(f"measure: {value!r}, expected {expected_value!r}")
    return problems


def check_classify_report(code, stdout, d, choi_kraus) -> list:
    doc = parse_report(stdout)
    if doc is None:
        return ["classify: output is not a JSON report"]
    report = dict(doc["verdicts"], **doc["residuals"])
    try:
        return check_exit(code, 0) + check_classification(superop_matrix(choi_kraus), d, report)
    except KeyError as exc:
        return [f"classify: report lacks {exc}"]


def check_usage_error(code, stdout, stderr) -> list:
    """A malformed document: exit 2, an error line, and no report."""
    problems = check_exit(code, 2)
    if stdout.strip():
        problems.append("malformed input produced a report")
    if not stderr.startswith("error:"):
        problems.append("malformed input gave no error message")
    return problems
