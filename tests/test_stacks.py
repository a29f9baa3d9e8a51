"""Stacked admission and the suites that use it.

The finite, Hermitian, density and unitary admissions take a stack
(..., n, n) and check every member in one pass; each member must come out bit
for bit as its own one-matrix admission, with eigh's spectrum reversed, and a
failing member must be named.  The theorem12 suite admits its channels' Choi
states as stacks, corollary32 its unitaries and their Choi states, and
theorem21 builds its draws, and each pair's closure candidates, as stacks;
so their check values are compared, bit for bit, with a recomputation that
takes one object at a time through the public API.  The sampler builds its
class members' matrices per Kraus count in one contraction, the structural
relations and theorem12's images read phase-out as a mask, and the Ginibre
draws reach ``kraus_from_ginibre`` raw; each is compared with the code that
built one object at a time, kept here as the reference.
Kernels such as ``partial_trace_out`` and ``cptp_residuals`` take a matrix or
a stack with no flag, and each row of a stack must equal the one-object call.
Every suite draws from its own int seed, so ``all`` must be the concatenation
of the standalone suites, in its reports and in the draws behind them; the
axioms harness keeps its draw order, pinned by a copy of its loop.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qopcoh
from qopcoh import coherence, suites, superop
from qopcoh.channel import (
    HADAMARD,
    PAULI_X,
    ChoiState,
    CptpReport,
    QuantumOperation,
    choi_matrices,
    cptp_residuals,
    dephasing_operation,
    ginibre,
    haar_from_ginibre,
    haar_unitary,
    is_cptp,
    is_incoherent_operation,
    kraus_from_ginibre,
    mix_operations,
    random_cptp,
    random_incoherent_cptp,
    random_unitary,
)
from qopcoh.coherence import (
    SQRT3_OVER_2,
    AxiomReport,
    fidelity_from_roots,
    max_coherent_operation,
    mf_pure,
    mf_single_qubit_unitary,
    single_qubit_closed_form,
    verify_axioms,
)
from qopcoh.exceptions import (
    DimensionMismatchError,
    InvalidChoiError,
    NotDensityMatrixError,
    NotFiniteError,
    NotHermitianError,
    NotUnitaryError,
)
from qopcoh.linalg import (
    devectorize,
    max_abs,
    partial_trace_out,
    require_density,
    require_finite,
    require_hermitian,
    require_unitary,
    vectorize,
)
from qopcoh.suites import SUITE_NAMES, run_suite
from qopcoh.superop import (
    CLASS_NAMES,
    COMBINATION_WEIGHTS,
    ClosureViolation,
    Superoperation,
    apply,
    check_cptp_preservation,
    check_structural_relations,
    classify,
    closure_harness,
    closure_of,
    compose,
    convex_combine,
    kraus_outcomes,
    phase_out,
    sample_superoperations,
    superop_matrices,
)
from qopcoh.tolerances import ADMISSION_ATOL


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def choi_stack(d: int, rng) -> np.ndarray:
    """Seeded Choi matrices of side d^2, with tied spectra among them: phase-out images, I/d^2 and a basis projector."""
    chois = [random_cptp(d, int(rng.integers(1, 4)), rng).choi.matrix for _ in range(6)]
    images = [apply(phase_out(d), QuantumOperation.from_choi(c)).choi.matrix for c in chois[:3]]
    n = d * d
    return np.stack(chois + images + [np.eye(n) / n, np.diag(np.eye(n)[0])])


@pytest.mark.parametrize("d", [2, 3, 4], ids=["4x4", "9x9", "16x16"])
def test_each_member_is_admitted_as_one_matrix_would_be(d):
    stack = choi_stack(d, np.random.default_rng(100 + d))
    h, (w, v) = require_density(stack, stacked=True)
    # the spectrum is eigh's, reversed: tied eigenvectors keep LAPACK's order, not a sort's
    w_eigh, v_eigh = np.linalg.eigh(h)
    assert (np.diff(w, axis=-1) <= 0).all()
    assert bits(w) == bits(w_eigh[..., ::-1]) and bits(v) == bits(v_eigh[..., ::-1])
    for k, member in enumerate(stack):
        h_k, (w_k, v_k) = require_density(member)
        assert bits(h[k]) == bits(h_k) and bits(w[k]) == bits(w_k) and bits(v[k]) == bits(v_k)
        assert bits(v_k) == bits(np.linalg.eigh(h_k)[1][:, ::-1])
        one = ChoiState(member)
        assert bits(h[k]) == bits(one.matrix) and one.d == d
        assert bits(w[k]) == bits(one._eig.eigenvalues) and bits(v[k]) == bits(one._eig.eigenvectors)
        assert not any(a.flags.writeable for a in (one.matrix, *one._eig))
    # the tied spectra really are tied
    assert (w[-2] == w[-2][0]).all() and (w[-1][1:] == 0).all()
    # any leading axes are read in row-major order; one matrix is a stack of one
    n = d * d
    h_grid, (w_grid, v_grid) = require_density(stack[:10].reshape(2, 5, n, n), stacked=True)
    assert bits(h_grid) == bits(h[:10]) and bits(w_grid) == bits(w[:10]) and bits(v_grid) == bits(v[:10])
    h_3, (w_3, v_3) = require_density(stack[3], stacked=True)
    assert bits(h_3) == bits(h[3]) and bits(w_3) == bits(w[3]) and bits(v_3) == bits(v[3])
    assert require_density(np.zeros((0, n, n)), stacked=True)[0].shape == (0, n, n)


def test_unitary_and_hermitian_stacks_pass_through_unchanged():
    rng = np.random.default_rng(7)
    unitaries = np.stack([haar_unitary(3, rng) for _ in range(5)])
    assert require_finite(unitaries, stacked=True) is unitaries
    assert require_unitary(unitaries, stacked=True) is unitaries
    assert require_hermitian(unitaries + np.swapaxes(unitaries.conj(), -1, -2), stacked=True).shape == (5, 3, 3)
    with pytest.raises(DimensionMismatchError, match="ndim=3"):
        require_density(unitaries)  # a stack needs stacked=True
    with pytest.raises(DimensionMismatchError, match="ndim=3"):
        require_unitary(unitaries)  # and the unitary admission takes one matrix only


def _spoil(kind: str, member: np.ndarray) -> None:
    if kind == "non-hermitian":
        member[0, 1] += 1e-3
    elif kind == "nan":
        member[1, 1] = np.nan
    elif kind == "above-2^250":
        member[0, 1], member[1, 0] = 1.7e308 + 1.7e308j, -1.7e308  # its skew part would overflow
    elif kind == "off-trace":
        member *= 1.5
    else:  # negative eigenvalue, trace one
        member[:] = np.diag([1.5, -0.5] + [0.0] * (len(member) - 2))


DEFECTS = {
    "non-hermitian": "is not Hermitian",
    "nan": "has a non-finite entry",
    "above-2^250": "has an entry above 2\\^250",
    "off-trace": "has trace 1.5",
    "negative": "has eigenvalue -5.000e-01",
}


@pytest.mark.parametrize("kind", DEFECTS)
@pytest.mark.parametrize("d", [2, 3, 4], ids=["4x4", "9x9", "16x16"])
def test_a_failing_member_is_named_with_the_entry_points_error(kind, d):
    stack = choi_stack(d, np.random.default_rng(200 + d)).astype(complex)
    _spoil(kind, stack[5])
    _spoil(kind, stack[8])  # a later failure must not be the one named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidChoiError, match=f"^Choi matrix \\(member 5\\) {DEFECTS[kind]}"):
            require_density(stack, InvalidChoiError, "Choi matrix", stacked=True)  # as the suites admit their draws
        with pytest.raises(NotDensityMatrixError, match=f"^state \\(member 5\\) {DEFECTS[kind]}"):
            require_density(stack, stacked=True)
        grid = stack[:10].reshape(2, 5, d * d, d * d)  # more than one leading axis: the index names every axis
        with pytest.raises(NotDensityMatrixError, match=f"^state \\(member 1, 0\\) {DEFECTS[kind]}"):
            require_density(grid, stacked=True)


def test_finite_and_unitary_admissions_name_the_member():
    rng = np.random.default_rng(8)
    unitaries = np.stack([haar_unitary(2, rng) for _ in range(4)])
    unitaries[1, 1, 1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotFiniteError, match=r"^matrix \(member 1\) has a non-finite entry"):
            require_finite(unitaries, stacked=True)
        with pytest.raises(NotHermitianError, match=r"^matrix \(member 1\) has a non-finite entry"):
            require_hermitian(unitaries, stacked=True)
        with pytest.raises(NotUnitaryError, match=r"^matrix \(member 1\) has a non-finite entry"):
            require_unitary(unitaries, stacked=True)
        scaled = np.stack([haar_unitary(2, rng) for _ in range(4)])
        scaled[[1, 3]] *= 1.1  # a later failure must not be the one named
        with pytest.raises(NotUnitaryError, match=r"^matrix \(member 1\) is not unitary \(residual 2\.100e-01\)"):
            require_unitary(scaled, stacked=True)
        with pytest.raises(NotUnitaryError, match=r"^matrix is not unitary \(residual 2\.100e-01\)"):
            require_unitary(scaled[3])


# ---------------------------------------------------------------------------
# One rule for stacks: kernels take a matrix or a stack, reports hold one object
# ---------------------------------------------------------------------------


def cptp_mixed_stack(d: int) -> np.ndarray:
    """Choi matrices of side d^2 with both CPTP verdicts.

    Random channels, a phase-out image and I/d^2 are CPTP; a basis projector, and at d=2 the maximally coherent
    operation at angles (0.1, 0.2, 0.3, 0.4), are not trace preserving.
    """
    rng = np.random.default_rng(40 + d)
    chois = [random_cptp(d, env, rng).choi.matrix for env in (1, 2, 3)]
    chois.append(apply(phase_out(d), QuantumOperation.from_choi(chois[0])).choi.matrix)
    n = d * d
    chois += [np.eye(n) / n, np.diag(np.eye(n)[0])]
    if d == 2:
        chois.append(max_coherent_operation([0.1, 0.2, 0.3, 0.4]).choi.matrix)
    return np.stack(chois)


@pytest.mark.parametrize("d", [2, 3])
def test_cptp_residuals_of_a_stack_equal_is_cptp_member_by_member(d):
    # the reference reads the smallest eigenvalue and the marginal residual with its own code
    stack = cptp_mixed_stack(d)
    h, (w, _) = require_density(stack, stacked=True)
    rows = [CptpReport(bool(ok), float(lowest), float(r)) for ok, lowest, r in zip(*cptp_residuals(h, w))]
    expected = []
    for member in stack:
        choi = ChoiState(member)
        lowest = float(choi._eig.eigenvalues.min())
        residual = max_abs(partial_trace_out(choi.matrix) - np.eye(d) / d)
        expected.append(CptpReport(lowest >= -ADMISSION_ATOL and residual <= ADMISSION_ATOL, lowest, residual))
        assert repr(is_cptp(choi)) == repr(expected[-1])
    assert repr(rows) == repr(expected)
    assert {row.ok for row in rows} == {True, False}


def test_is_cptp_holds_python_scalars():
    # the JSON report of check --predicate cptp needs a bool and two floats, not numpy scalars
    for member in cptp_mixed_stack(2):
        rep = is_cptp(ChoiState(member))
        assert tuple(type(x) for x in (rep.ok, rep.min_eigenvalue, rep.marginal_residual)) == (bool, float, float)


@pytest.mark.parametrize("d", [2, 3])
def test_partial_trace_out_of_a_grid_equals_per_matrix_calls(d):
    rng = np.random.default_rng(50 + d)
    n = d * d
    grid = rng.standard_normal((2, 3, n, n)) + 1j * rng.standard_normal((2, 3, n, n))
    out = partial_trace_out(grid)
    assert out.shape == (2, 3, d, d)
    members = grid.reshape(-1, n, n)
    assert bits(out) == b"".join(bits(partial_trace_out(m)) for m in members)
    for m, b in zip(members, out.reshape(-1, d, d)):
        reference = [[sum(m[i * d + a, j * d + a] for a in range(d)) for j in range(d)] for i in range(d)]
        assert max_abs(b - np.array(reference)) <= 1e-12


def test_sampled_superoperations_are_read_only():
    # the sampler stacks members that are already admitted, so it admits nothing; it still hands out read-only views
    drawn = sample_superoperations([None, *CLASS_NAMES, *CLASS_NAMES], 2, 3)
    for s in drawn:
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 1.0


# ---------------------------------------------------------------------------
# The stacked suites against a recomputation one object at a time
# ---------------------------------------------------------------------------

SAMPLES = 16


@pytest.mark.parametrize("seed", range(20))
def test_theorem12_equals_a_per_channel_recomputation(seed):
    rng = np.random.default_rng(seed)
    expected = []
    for d, count in ((2, SAMPLES), (3, max(1, (SAMPLES * 2) // 5))):
        ok, worst_marginal, worst_eig = True, 0.0, 0.0
        for _ in range(count):
            rep = check_cptp_preservation(random_cptp(d, int(rng.integers(1, 4)), rng))
            ok = ok and rep.ok
            worst_marginal = max(worst_marginal, rep.marginal_residual)
            worst_eig = min(worst_eig, rep.min_eigenvalue)
        expected.append((ok, count, worst_marginal, worst_eig))
    got = [(c["pass"], *c["details"].values()) for c in run_suite("theorem12", SAMPLES, seed)]
    assert [tuple(map(repr, g)) for g in got] == [tuple(map(repr, e)) for e in expected]


def brute_force_per_basis_state(u: np.ndarray) -> float:
    choi = QuantumOperation.from_unitary(u).choi
    best = math.inf
    for m in range(4):
        basis = np.zeros((4, 4), dtype=complex)
        basis[m, m] = 1.0
        best = min(best, math.sqrt(max(1.0 - float(fidelity_from_roots(choi.root, basis)), 0.0)))
    return best


@pytest.mark.parametrize("seed", range(20))
def test_corollary32_equals_a_per_unitary_recomputation(seed):
    rng = np.random.default_rng(seed)
    worst_gap, lo, hi = 0.0, math.inf, -math.inf
    for _ in range(SAMPLES):
        u = haar_unitary(2, rng)
        closed = mf_single_qubit_unitary(u).value
        worst_gap = max(worst_gap, abs(closed - brute_force_per_basis_state(u)))
        lo, hi = min(lo, closed), max(hi, closed)
    # the angle draws come after the unitaries, so they check the draw order too
    worst_phi = max(
        abs(mf_pure(max_coherent_operation(rng.uniform(0.0, 2.0 * math.pi, size=4))).value - SQRT3_OVER_2)
        for _ in range(max(1, SAMPLES // 10))
    )
    ends = [mf_single_qubit_unitary(u).value for u in (np.eye(2), PAULI_X, HADAMARD)]
    checks = run_suite("corollary32", SAMPLES, seed)
    assert repr(checks[0]["details"]["max_gap"]) == repr(worst_gap)
    assert repr(checks[1]["details"]["min_observed"]) == repr(min(lo, *ends))
    assert repr(checks[1]["details"]["max_observed"]) == repr(max(hi, *ends))
    assert repr(checks[4]["details"]["max_gap"]) == repr(worst_phi)


def test_import_loads_no_scipy_or_hypothesis():
    src = str(Path(qopcoh.__file__).resolve().parents[1])
    code = "import sys, qopcoh, qopcoh.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis'}))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# theorem21: the batched draws and closure candidates against one object at a time
# ---------------------------------------------------------------------------


def cptp_one_at_a_time(rng, d: int = 2) -> QuantumOperation:
    """A random CPTP channel with environment 1 or 2, from its own Haar isometry of side d * env."""
    env = int(rng.integers(1, 3))
    return QuantumOperation.from_kraus(haar_unitary(d * env, rng)[:, :d].reshape(env, d, d))


def member_one_at_a_time(name, rng, d: int = 2) -> Superoperation:
    """A random sandwich (name None) or a class member, drawn and built one object at a time."""
    theta = phase_out(d)
    base = Superoperation.from_sandwich(cptp_one_at_a_time(rng, d), cptp_one_at_a_time(rng, d))
    if name == "miso":
        if rng.uniform() < 0.5:
            return compose(theta, base)
        return Superoperation.from_sandwich(random_incoherent_cptp(d, rng), random_incoherent_cptp(d, rng))
    if name == "miso_star":
        return compose(base, theta)
    return base if name is None else compose(theta, compose(base, theta))


def closure_one_at_a_time(name: str, members: list, d: int = 2) -> tuple:
    """(violations, max residual, intersection verdict), composing, mixing and classifying one candidate at a time."""
    theta = phase_out(d).matrix
    violations, worst, consistent = [], 0.0, True
    for i in range(len(members) // 2):
        s1, s2 = members[2 * i], members[2 * i + 1]
        candidates = [("compose", compose(s1, s2))]
        candidates += [(f"convex p={p}", convex_combine([p, 1.0 - p], [s1, s2])) for p in COMBINATION_WEIGHTS]
        for kind, candidate in candidates:
            verdict = classify(candidate)
            worst = max(worst, getattr(verdict, f"{name}_residual"))
            if not getattr(verdict, f"in_{name}"):
                violations.append(ClosureViolation(name, i, kind, verdict))
            m = candidate.matrix
            consistent = consistent and verdict.in_diso == (max_abs(m @ theta - theta @ m) <= 1e-9)
    return violations, worst, consistent


@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("seed", range(20))
def test_theorem21_equals_a_per_object_recomputation(seed, samples, monkeypatch):
    # the report values do not depend on the draws (every closure residual is exactly 0), so the
    # superoperations the suite checks are compared too, in the order it checks them
    rng = np.random.default_rng(seed)
    groups = [[member_one_at_a_time(name, rng) for _ in range(2 * samples)] for name in CLASS_NAMES]
    groups += [[member_one_at_a_time(name, rng) for _ in range(samples)] for name in (None, "miso_star")]
    closures = [closure_one_at_a_time(name, members) for name, members in zip(CLASS_NAMES, groups)]
    eq24, eq25 = ([check_structural_relations(s) for s in group] for group in groups[3:])
    expected = [(not violations and ok, len(violations), worst) for violations, worst, ok in closures]
    expected.append((all(ok for _, _, ok in closures),))
    expected.append((all(r.phaseout_after_is_miso and r.phaseout_both_sides_is_miso for r in eq24),))
    expected.append((all(r.input_in_miso_star and r.ok for r in eq25),))
    seen = []
    monkeypatch.setattr(suites, "closure_of", lambda name, members: seen.extend(members) or closure_of(name, members))
    monkeypatch.setattr(suites, "check_structural_relations", lambda s: seen.append(s) or check_structural_relations(s))
    got = [(c["pass"], *c["details"].values()) for c in run_suite("theorem21", samples, seed)]
    assert [tuple(map(repr, g)) for g in got] == [tuple(map(repr, e)) for e in expected]
    assert [bits(s.matrix) for s in seen] == [bits(s.matrix) for group in groups for s in group]


@pytest.mark.parametrize(
    "name, d", [pytest.param(name, d, id=name if d == 2 else f"{name}-d{d}") for d in (2, 3) for name in CLASS_NAMES]
)
def test_closure_harness_equals_a_per_object_recomputation(name, d, monkeypatch):
    rng = np.random.default_rng(33)
    members = [member_one_at_a_time(name, rng, d) for _ in range(30)]
    expected = closure_one_at_a_time(name, members, d)
    seen = []
    monkeypatch.setattr(superop, "closure_of", lambda name, members: seen.extend(members) or closure_of(name, members))
    rep = closure_harness(name, 15, seed=33, d=d)
    assert repr((rep.violations, rep.max_residual, rep.intersection_consistent)) == repr(expected)
    assert [bits(s.matrix) for s in seen] == [bits(s.matrix) for s in members]


@pytest.mark.parametrize("d", [2, 3])
def test_closure_violations_equal_a_per_object_recomputation(d):
    # phased MISO members are not DISO members, so their closure under diso reports violations,
    # each carrying the report of classify on its one candidate
    members = sample_superoperations(["miso"] * 6, d, 37)
    expected = closure_one_at_a_time("diso", members, d)
    rep = closure_of("diso", members)
    assert len(expected[0]) >= 6
    assert repr((rep.violations, rep.max_residual, rep.intersection_consistent)) == repr(expected)


def test_intersection_check_does_not_read_classify_index_sets(monkeypatch):
    # the commutator M T - T M is a matrix product, so index sets that misplace the blocks make
    # classify disagree with it; a commutator read through the same index sets would agree with them
    members = sample_superoperations(["diso"] * 6, 2, 35)
    assert closure_of("diso", members).intersection_consistent
    diagonal = np.arange(0, 16 * 16, 16 + 1)
    monkeypatch.setattr(superop, "_block_indices", lambda d: np.stack([diagonal, diagonal]))
    assert not closure_of("diso", members).intersection_consistent


def closed_form_by_hand(u: np.ndarray) -> float:
    """The closed form with Python scalars: squared moduli |U[0,0]|^2 / 2 and |U[0,1]|^2 / 2, math.sqrt, max, min."""
    diag = [abs(z) ** 2 / 2 for z in vectorize(u)]
    return min(math.sqrt(max(1.0 - diag[0], 0.0)), math.sqrt(max(1.0 - diag[2], 0.0)))


def test_closed_form_squares_moduli_as_python_abs_does():
    # the closed form squares |U[a, i]| as Python's abs(z) ** 2 would, entry by entry; numpy's
    # np.abs(z) ** 2 differs in the last bit on about a third of the entries, which moves the value
    rng = np.random.default_rng(2000)
    for _ in range(2000):
        u = haar_unitary(2, rng)
        assert repr(mf_single_qubit_unitary(u).value) == repr(closed_form_by_hand(u))


def test_closed_form_of_a_stack_equals_the_one_unitary_measure():
    # corollary32 measures its drawn unitaries and I, X and H with one kernel call; each value must be the
    # one-unitary measure's, and that of the closed form spelled with Python scalars
    rng = np.random.default_rng(2001)
    unitaries = np.concatenate([[haar_unitary(2, rng) for _ in range(1000)], [np.eye(2), PAULI_X, HADAMARD]])
    values, diag = single_qubit_closed_form(require_unitary(unitaries, dim=2, stacked=True))
    assert values.shape == (1003,) and diag.shape == (1003, 4)
    assert repr(values.tolist()) == repr([mf_single_qubit_unitary(u).value for u in unitaries])
    assert repr(values.tolist()) == repr([closed_form_by_hand(u) for u in unitaries])
    grid, _ = single_qubit_closed_form(unitaries[:1000].reshape(10, 100, 2, 2))  # any leading axes
    assert bits(grid) == bits(values[:1000])


# ---------------------------------------------------------------------------
# Grouped member builds, masked structural relations and theorem12 images, raw Ginibre draws
# ---------------------------------------------------------------------------


def matrix_one_at_a_time(choi_kraus: np.ndarray) -> np.ndarray:
    """The d^4 x d^4 matrix of one Kraus stack, as the one-superoperation build spelled it: conj(K)^T K, reordered."""
    dd = choi_kraus.shape[-1]
    ks = choi_kraus.reshape(-1, dd * dd)
    return (ks.conj().T @ ks).reshape(dd, dd, dd, dd).transpose(0, 2, 1, 3).reshape(dd * dd, dd * dd)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(20))
def test_grouped_member_matrices_equal_one_sandwich_at_a_time(seed, d, monkeypatch):
    # the class members are built per Kraus count; each must be its own sandwich's matrix, masked as a
    # product with phase-out would leave it, and each row of a group's build that sandwich's own matrix
    names = ["miso", "miso_star", "diso", None] * 3
    groups = []
    monkeypatch.setattr(superop, "superop_matrices", lambda ks: groups.append(ks) or superop_matrices(ks))
    drawn = sample_superoperations(names, d, seed)
    rng = np.random.default_rng(seed)
    expected = [member_one_at_a_time(name, rng, d) for name in names]
    assert [bits(s.matrix) for s in drawn] == [bits(s.matrix) for s in expected]
    groups = [stacks for stacks in groups if stacks.ndim == 4]  # not the one-superoperation builds
    sizes = [stacks.shape[1] for stacks in groups]
    assert len(sizes) == len(set(sizes)) > 1  # mixed environment sizes: one build per Kraus count
    for stacks in groups:
        assert bits(superop_matrices(stacks)) == b"".join(bits(matrix_one_at_a_time(ks)) for ks in stacks)
    for s in drawn[3::4]:  # the random sandwiches, built one at a time when read
        assert bits(s.matrix) == bits(Superoperation.from_sandwich(s.post, s.pre).matrix)
        assert bits(s.matrix) == bits(matrix_one_at_a_time(s.choi_kraus))


def structural_one_at_a_time(s: Superoperation) -> superop.StructuralReport:
    """The structural relations through compose with phase_out and classify, one product per relation."""
    theta = phase_out(s.d)
    after = classify(compose(theta, s))
    s_theta = compose(s, theta)
    both = classify(compose(theta, s_theta))
    own = classify(s)
    star = own.in_miso_star
    return superop.StructuralReport(
        phaseout_after_is_miso=after.in_miso,
        phaseout_both_sides_is_miso=both.in_miso,
        input_in_miso_star=star,
        phaseout_after_is_miso_star=after.in_miso_star if star else None,
        phaseout_before_is_miso_star=classify(s_theta).in_miso_star if star else None,
    )


@pytest.mark.parametrize("d", [2, 3])
def test_structural_relations_equal_the_compose_and_classify_reference(d):
    rng = np.random.default_rng(90 + d)
    subjects = [phase_out(d)] + sample_superoperations([None, *CLASS_NAMES] * 3, d, rng)
    subjects.append(Superoperation.from_matrix(rng.standard_normal((d**4, d**4))))  # in no class
    reports = [check_structural_relations(s) for s in subjects]
    assert repr(reports) == repr([structural_one_at_a_time(s) for s in subjects])
    assert {r.input_in_miso_star for r in reports} == {True, False}


def theorem12_multiply_and_readmit(samples: int, seed) -> list:
    """theorem12's checks with each channel drawn and built alone, its image a product with phase-out, re-admitted."""
    rng = np.random.default_rng(seed)
    checks = []
    for d, count in ((2, samples), (3, max(1, (samples * 2) // 5))):
        chois = []
        for _ in range(count):
            env = int(rng.integers(1, 4))
            kraus = haar_from_ginibre(ginibre(d * env, rng))[:, :d].reshape(env, d, d)
            chois.append(ChoiState(choi_matrices(kraus)).matrix)
        images = devectorize(vectorize(np.stack(chois)) @ phase_out(d).matrix.T, d * d)
        h, (w, _) = require_density(images, InvalidChoiError, "Choi matrix", stacked=True)
        ok, min_eig, marginal = cptp_residuals(h, w)
        details = {
            "channels": count,
            "max_marginal_residual": max(0.0, *marginal.tolist()),
            "min_eigenvalue": min(0.0, *min_eig.tolist()),
        }
        name = f"theorem12 dephased channels stay CPTP (d={d}, {count} channels)"
        checks.append({"name": name, "pass": bool(ok.all()), "details": details})
    return checks


@pytest.mark.parametrize("samples", [1, 3, 16])
@pytest.mark.parametrize("seed", range(20))
def test_theorem12_equals_the_multiply_and_readmit_reference(seed, samples, monkeypatch):
    seen = []
    monkeypatch.setattr(suites, "cptp_residuals", lambda m, w: seen.append((m, w)) or cptp_residuals(m, w))
    assert repr(run_suite("theorem12", samples, seed)) == repr(theorem12_multiply_and_readmit(samples, seed))
    # per d, the admitted states then their images; the images' spectra are their sorted diagonals, which must
    # be eigh's bit for bit: the report clamps min_eigenvalue at 0.0, so it would not show a last-bit difference
    assert len(seen) == 4
    for m, w in seen[1::2]:
        assert np.count_nonzero(m) == np.count_nonzero(np.diagonal(m, axis1=-2, axis2=-1))
        assert bits(w) == bits(np.linalg.eigh(m)[0][..., ::-1])


def diagonal_spectrum(images: np.ndarray) -> np.ndarray:
    return np.sort(images.diagonal(axis1=-2, axis2=-1).real)[..., ::-1]


@pytest.mark.parametrize("d", [2, 3])
def test_cptp_residuals_fail_closed_on_diagonal_images(d):
    # theorem12 gives its images' verdicts from their diagonals with no admission, so the kernel must
    # reject a non-finite entry, a negative one and a wrong marginal by itself
    n = d * d
    good = np.diag(np.full(n, 1.0 / n)).astype(complex)
    nan, negative, lopsided = good.copy(), good.copy(), good.copy()
    nan[1, 1] = np.nan
    negative[0, 0] -= 1.0 / n + 2 * ADMISSION_ATOL  # moved within input block 0: the marginal still holds
    negative[1, 1] += 1.0 / n + 2 * ADMISSION_ATOL
    lopsided[0, 0] += 0.01  # moved from input block 1 to block 0: positive, but tr_out is not I/d
    lopsided[d, d] -= 0.01
    images = np.stack([good, nan, negative, lopsided])
    ok, min_eig, marginal = cptp_residuals(images, diagonal_spectrum(images))
    assert ok.tolist() == [True, False, False, False]
    assert np.isnan(marginal[1])
    assert min_eig[2] < -ADMISSION_ATOL and marginal[2] <= ADMISSION_ATOL
    assert min_eig[3] > 0 and marginal[3] > ADMISSION_ATOL


@pytest.mark.parametrize("d", [2, 3])
def test_raw_draws_give_the_complex_draw_kraus_stacks(d):
    # kraus_from_ginibre takes raw standard-normal pairs; each stack must be the one a complex Ginibre
    # draw gives through its own QR, and the two generators must end in the same state
    raw, one = np.random.default_rng(60 + d), np.random.default_rng(60 + d)
    draws, expected = [], []
    for _ in range(12):
        n = d * int(raw.integers(1, 4))
        draws.append(raw.standard_normal((2, n, n)))
        env = int(one.integers(1, 4))
        expected.append(haar_from_ginibre(ginibre(d * env, one))[:, :d].reshape(env, d, d))
    stacks = kraus_from_ginibre(d, draws)
    assert len({len(k) for k in stacks}) > 1
    assert [bits(k) for k in stacks] == [bits(k) for k in expected]
    assert not any(k.flags.writeable for k in stacks)
    assert raw.integers(2**62) == one.integers(2**62)


@pytest.mark.parametrize("d", [2, 3])
def test_direct_incoherent_stacks_equal_their_admitted_build(d):
    # the incoherent generator and the dephasing channel build their read-only Kraus stacks without admission
    rng = np.random.default_rng(80 + d)
    t = rng.uniform(0.05, 1.0, size=(d, d))
    t /= t.sum(axis=0, keepdims=True)
    eye = np.eye(d)
    ks = np.sqrt(t.T)[:, :, None, None] * eye[None, :, :, None] * eye[:, None, None, :]
    expected = QuantumOperation.from_kraus(ks.reshape(d * d, d, d)).kraus_operators
    built = random_incoherent_cptp(d, 80 + d).kraus_operators
    assert built.dtype == expected.dtype and bits(built) == bits(expected)
    eye = np.eye(d, dtype=complex)
    dephasing = dephasing_operation(d).kraus_operators
    assert bits(dephasing) == bits(QuantumOperation.from_kraus(eye[:, :, None] * eye[:, None, :]).kraus_operators)
    assert not built.flags.writeable and not dephasing.flags.writeable


def spy_on_draws(monkeypatch) -> list:
    """Record, as the suites call them, each AxiomCheck of the axioms harness and each sampled member's matrix."""
    seen = []

    def axioms(**kwargs):
        report = verify_axioms(**kwargs)
        seen.extend(map(repr, report.checks))
        return report

    def sample(names, d, seed):
        drawn = sample_superoperations(names, d, seed)
        seen.extend(bits(s.matrix) for s in drawn)
        return drawn

    monkeypatch.setattr(suites, "verify_axioms", axioms)
    monkeypatch.setattr(suites, "sample_superoperations", sample)
    return seen


@pytest.mark.parametrize("samples", [1, 3, 20])
@pytest.mark.parametrize("seed", range(10))
def test_all_is_the_concatenation_of_the_standalone_suites(seed, samples, monkeypatch):
    # the theorem21 and axioms reports do not show their draws, so the draws are compared too
    seen = spy_on_draws(monkeypatch)
    whole = run_suite("all", samples, seed)
    drawn_in_all = seen[:]
    seen.clear()
    parts = [check for name in SUITE_NAMES if name != "all" for check in run_suite(name, samples, seed)]
    assert repr(whole) == repr(parts)
    assert drawn_in_all == seen


def axioms_one_at_a_time(samples: int, seed: int) -> list:
    """The checks of ``verify_axioms``, from a copy of its loop: the reference for the order of its draws."""
    rng = np.random.default_rng(seed)
    report = AxiomReport()
    d = 2
    dd = d * d
    measure, check = coherence._measure_value, coherence._check
    for n in range(samples):
        inc = random_incoherent_cptp(d, rng)
        value, exact = measure(inc, 0.0)
        check(report, "nonnegativity", f"incoherent channel #{n} scores zero", value, 0.0, exact)
    for n in range(samples):
        u = random_unitary(d, rng)
        value = mf_pure(u).value
        if not is_incoherent_operation(u.choi).ok:
            check(report, "nonnegativity", f"coherent unitary #{n} scores positive", 2 * coherence.AXIOM_SLACK, value)
    for n in range(samples):
        phi = random_unitary(d, rng)
        base = mf_pure(phi).value
        iso = Superoperation.from_kraus_on_choi([coherence._perm_phase_choi_kraus(dd, rng)])
        check(report, "monotonicity", f"permutation-phase ISO #{n}", mf_pure(apply(iso, phi)).value, base)
    for n in range(samples // 2):
        phi = random_unitary(d, rng)
        base = mf_pure(phi).value
        out = apply(Superoperation.from_kraus_on_choi(coherence._two_branch_choi_kraus(dd, rng)), phi)
        value, exact = measure(out, base)
        check(report, "monotonicity", f"two-branch ISO mixture #{n}", value, base, exact)
    for n in range(samples):
        phi = random_unitary(d, rng)
        base = mf_pure(phi).value
        if n % 2 == 0:
            kraus = coherence._partition_projectors(dd, rng)
            label = f"projective partition #{n}"
        else:
            kraus = coherence._two_branch_choi_kraus(dd, rng)
            label = f"branching perm-phase ISO #{n}"
        outcomes = kraus_outcomes(Superoperation.from_kraus_on_choi(kraus), phi)
        check(report, "strong_monotonicity", label, sum(p * mf_pure(b).value for p, b in outcomes), base)
    for n in range(samples):
        u1, u2 = random_unitary(d, rng), random_unitary(d, rng)
        p = float(rng.uniform(0.0, 1.0))
        rhs = p * mf_pure(u1).value + (1 - p) * mf_pure(u2).value
        value, exact = measure(mix_operations([p, 1 - p], [u1, u2]), rhs)
        check(report, "convexity", f"unitary mixture #{n} (p={p:.3f})", value, rhs, exact)
    for n in range(samples // 2):
        i1, i2 = random_incoherent_cptp(d, rng), random_incoherent_cptp(d, rng)
        p = float(rng.uniform(0.0, 1.0))
        value, exact = measure(mix_operations([p, 1 - p], [i1, i2]), 0.0)
        check(report, "convexity", f"incoherent mixture #{n}", value, 0.0, exact)
    for p in (0.0, 1.0):
        u1, u2 = random_unitary(d, rng), random_unitary(d, rng)
        rhs = p * mf_pure(u1).value + (1 - p) * mf_pure(u2).value
        value, exact = measure(mix_operations([p, 1 - p], [u1, u2]), rhs)
        check(report, "convexity", f"degenerate mixture p={p}", value, rhs, exact)
    return report.checks


@pytest.mark.parametrize("samples", [1, 3, 20])
@pytest.mark.parametrize("seed", range(10))
def test_axioms_draw_in_the_order_of_the_reference_loop(seed, samples):
    # the axioms report carries only per-axiom counts, so the checks behind it are compared
    assert repr(verify_axioms(samples, seed=seed).checks) == repr(axioms_one_at_a_time(samples, seed))
