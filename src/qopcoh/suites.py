"""Named verification suites behind ``qopcoh verify``.

Each suite re-derives one of the package's headline guarantees from
scratch at desk scale, from its own generator seeded by the int ``seed``,
and emits machine-readable pass/fail checks.
"""

import math

import numpy as np

from .channel import (
    HADAMARD,
    PAULI_X,
    ChoiState,
    choi_matrices,
    cptp_residuals,
    ginibre,
    haar_from_ginibre,
    kraus_from_ginibre,
    rng_from,
)
from .coherence import (
    SQRT2_OVER_2,
    SQRT3_OVER_2,
    fidelity_from_roots,
    max_coherent_operation,
    mf_pure,
    single_qubit_closed_form,
    verify_axioms,
)
from .exceptions import InputNotCPTPError, InvalidChoiError, QopcohError, UnknownSuiteError
from .linalg import devectorize, max_abs, psd_root, require_density, require_unitary, vectorize
from .superop import (
    CLASS_NAMES,
    check_structural_relations,
    closure_of,
    phase_out,
    phase_out_sandwich,
    sample_superoperations,
)
from .tolerances import ADMISSION_ATOL, ALGEBRA_ATOL, EIG_ATOL


def mf_pure_brute_force(roots) -> np.ndarray:
    """Minimum of sqrt(1 - F) over the incoherent basis states, by brute force.

    Takes the root of an admitted Choi state, or a stack (..., n, n) of roots
    (a ChoiState stands for its root), and runs every basis state of each
    through the general Uhlmann fidelity as one stacked SVD (a basis
    projector is its own root); serves as the independent oracle for the
    closed-form single-qubit measure.  sqrt(max(1 - F, 0)) falls as F rises,
    in floating point too, so its minimum is its value at the largest F.
    """
    roots = roots.root if isinstance(roots, ChoiState) else roots
    eye = np.eye(roots.shape[-1], dtype=complex)
    f = fidelity_from_roots(roots[..., None, :, :], eye[:, :, None] * eye[:, None, :])
    return np.sqrt(np.maximum(1.0 - f.max(axis=-1), 0.0))


def _check(name: str, ok: bool, **details) -> dict:
    return {"name": name, "pass": bool(ok), "details": details}


def suite_theorem11(samples: int, seed: int) -> list:
    """Phase-out: sandwich and Kraus constructions agree; idempotence."""
    checks = []
    for d in (2, 3):
        kraus_form = phase_out(d)
        sandwich_form = phase_out_sandwich(d)
        gap = max_abs(kraus_form.matrix - sandwich_form.matrix)
        checks.append(
            _check(f"theorem11 sandwich equals kraus form (d={d})", gap <= ALGEBRA_ATOL, residual=gap)
        )
        idem = max_abs(kraus_form.matrix @ kraus_form.matrix - kraus_form.matrix)
        checks.append(_check(f"theorem11 phase-out idempotent (d={d})", idem <= ALGEBRA_ATOL, residual=idem))
    return checks


def suite_theorem12(samples: int, seed: int) -> list:
    """Phase-out maps random CPTP channels to CPTP channels.

    The channels ``random_cptp`` draws, in its rng order, are admitted and given CPTP verdicts as one stack grouped
    by environment size (one ``choi_matrices`` call each; a failed admission names its member in that order).
    Phase-out is a 0/1 diagonal mask: the images are the states' diagonals, with nothing to admit, and their spectra
    those diagonals sorted (bit-equal to ``eigh``'s).
    """
    rng = rng_from(seed)
    checks = []
    for d, count in ((2, samples), (3, max(1, (samples * 2) // 5))):
        draws = [rng.standard_normal((2, n := d * int(rng.integers(1, 4)), n)) for _ in range(count)]
        stacks = kraus_from_ginibre(d, draws)
        groups = [np.stack([s for s in stacks if len(s) == env]) for env in dict.fromkeys(map(len, stacks))]
        chois = np.concatenate([choi_matrices(group) for group in groups])
        h, (w, _) = require_density(chois, InvalidChoiError, "Choi matrix", stacked=True)
        if not cptp_residuals(h, w)[0].all():
            raise InputNotCPTPError(f"a drawn d={d} channel is not CPTP")
        images = devectorize(np.where(phase_out(d).matrix.diagonal() != 0, vectorize(h), 0), d * d)
        ok, min_eig, marginal = cptp_residuals(images, np.sort(images.diagonal(axis1=-2, axis2=-1).real)[..., ::-1])
        checks.append(
            _check(
                f"theorem12 dephased channels stay CPTP (d={d}, {count} channels)",
                bool(ok.all()),
                channels=count,
                max_marginal_residual=max(0.0, *marginal.tolist()),
                min_eigenvalue=min(0.0, *min_eig.tolist()),
            )
        )
    return checks


def suite_theorem21(samples: int, seed: int) -> list:
    """Closure of the three superoperation classes, plus structural relations.

    Every draw is taken first, in the order of one object at a time: 2 * samples members of each class, the eq. 2.4
    sandwiches, then the eq. 2.5 MISO* members; ``sample_superoperations`` builds them as one batch.
    """
    per_class = 2 * samples
    names = [name for name in CLASS_NAMES for _ in range(per_class)] + [None] * samples + ["miso_star"] * samples
    drawn = sample_superoperations(names, 2, seed)
    checks = []
    intersection_ok = True
    for k, name in enumerate(CLASS_NAMES):
        rep = closure_of(name, drawn[k * per_class : (k + 1) * per_class])
        intersection_ok = intersection_ok and rep.intersection_consistent
        checks.append(
            _check(
                f"theorem21 closure of {name} ({samples} pairs)",
                rep.ok,
                violations=len(rep.violations),
                max_residual=rep.max_residual,
            )
        )
    checks.append(_check("theorem21 diso equals miso intersection miso*", intersection_ok))
    eq24 = [check_structural_relations(s) for s in drawn[3 * per_class : 3 * per_class + samples]]
    eq24_ok = all(r.phaseout_after_is_miso and r.phaseout_both_sides_is_miso for r in eq24)
    checks.append(_check(f"theorem21 phase-out compositions are MISO ({samples} superoperations)", eq24_ok))
    eq25 = [check_structural_relations(s) for s in drawn[3 * per_class + samples :]]
    eq25_ok = all(r.input_in_miso_star and bool(r.ok) for r in eq25)
    checks.append(_check(f"theorem21 MISO* survives phase-out composition ({samples} members)", eq25_ok))
    return checks


def suite_corollary32(samples: int, seed: int) -> list:
    """Single-qubit closed form versus brute force, range, and extremes.

    The unitaries ``haar_unitary`` draws, from one Ginibre stack, and I, X and H are admitted and measured as one
    stack by ``single_qubit_closed_form``; the drawn ones' Choi states are admitted, rooted and brute-forced as one.
    """
    rng = rng_from(seed)
    checks = []
    unitaries = haar_from_ginibre(ginibre(2, rng, (samples,)))
    _, eig = require_density(choi_matrices(unitaries[:, None]), InvalidChoiError, "Choi matrix", stacked=True)
    measured = np.concatenate([unitaries, [np.eye(2), PAULI_X, HADAMARD]])
    values = single_qubit_closed_form(require_unitary(measured, dim=2, stacked=True))[0].tolist()
    closed, (v_i, v_x, v_h) = values[:samples], values[samples:]
    worst_gap = max(0.0, *np.abs(np.array(closed) - mf_pure_brute_force(psd_root(eig))).tolist())
    checks.append(
        _check(
            f"theorem31 closed form matches brute-force oracle ({samples} unitaries)",
            worst_gap <= EIG_ATOL,
            max_gap=worst_gap,
        )
    )

    lo, hi = min(values), max(values)
    checks.append(
        _check(
            "corollary32 measure range within [sqrt2/2, sqrt3/2]",
            lo >= SQRT2_OVER_2 - ADMISSION_ATOL and hi <= SQRT3_OVER_2 + ADMISSION_ATOL,
            min_observed=lo,
            max_observed=hi,
        )
    )
    gap_i = abs(v_i - SQRT2_OVER_2)
    gap_x = abs(v_x - SQRT2_OVER_2)
    gap_h = abs(v_h - SQRT3_OVER_2)
    checks.append(
        _check(
            "corollary32 identity and X attain the lower endpoint",
            max(gap_i, gap_x) <= ALGEBRA_ATOL,
            identity_gap=gap_i,
            pauli_x_gap=gap_x,
        )
    )
    checks.append(_check("corollary32 Hadamard attains the upper endpoint", gap_h <= ALGEBRA_ATOL, gap=gap_h))

    phi_count = max(1, samples // 10)
    worst_phi = 0.0
    for _ in range(phi_count):
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=4)
        value = mf_pure(max_coherent_operation(thetas)).value
        worst_phi = max(worst_phi, abs(value - SQRT3_OVER_2))
    checks.append(
        _check(
            f"corollary33 maximally coherent operation scores sqrt3/2 ({phi_count} angle draws)",
            worst_phi <= ALGEBRA_ATOL,
            max_gap=worst_phi,
        )
    )
    return checks


def suite_axioms(samples: int, seed: int) -> list:
    """Measure-axiom harness; inconclusive checks are reported, never passed."""
    report = verify_axioms(samples=samples, seed=seed)
    checks = []
    for axiom in ("nonnegativity", "monotonicity", "strong_monotonicity", "convexity"):
        entries = [c for c in report.checks if c.axiom == axiom]
        fails = [c for c in entries if c.status == "fail"]
        inconclusive = [c for c in entries if c.status == "inconclusive"]
        checks.append(
            _check(
                f"axiom {axiom}",
                not fails,
                checks=len(entries),
                failed=len(fails),
                inconclusive=len(inconclusive),
                inconclusive_cases=[c.description for c in inconclusive],
            )
        )
    return checks


_SUITES = {
    "theorem11": suite_theorem11,
    "theorem12": suite_theorem12,
    "theorem21": suite_theorem21,
    "corollary32": suite_corollary32,
    "axioms": suite_axioms,
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, samples: int, seed: int) -> list:
    """Run one named suite, or each suite in order for ``all``, and return the checks.

    Each suite runs from ``seed`` as it does alone; a toolkit error it raises is one failed check.  With no samples a
    suite would pass without checking anything, so ``samples`` must be at least 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if name not in SUITE_NAMES:
        raise UnknownSuiteError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    checks = []
    for suite in _SUITES if name == "all" else [name]:
        try:
            checks += _SUITES[suite](samples, seed)
        except QopcohError as exc:
            checks.append(_check(f"{suite} ran without error", False, error=str(exc)))
    return checks
