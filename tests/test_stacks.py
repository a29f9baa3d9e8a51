"""Stacked admission and the suites that use it.

The finite, Hermitian and density admissions take a stack (..., n, n) and
check every member in one pass; each member must come out bit for bit as its
own one-matrix admission, with eigh's spectrum reversed, and a failing member
must be named.  The unitary admission takes one matrix only.  The theorem12
suite admits its channels' Choi states as stacks, and corollary32 its
unitaries' Choi states, so their check values are compared, bit for bit, with
a recomputation that takes one object at a time through the public API.
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
from qopcoh.channel import HADAMARD, PAULI_X, ChoiState, QuantumOperation, haar_unitary, random_cptp
from qopcoh.coherence import SQRT3_OVER_2, fidelity_from_roots, max_coherent_operation, mf_pure, mf_single_qubit_unitary
from qopcoh.exceptions import (
    DimensionMismatchError,
    InvalidChoiError,
    NotDensityMatrixError,
    NotFiniteError,
    NotHermitianError,
)
from qopcoh.linalg import require_density, require_finite, require_hermitian, require_unitary
from qopcoh.suites import run_suite
from qopcoh.superop import apply, check_cptp_preservation, phase_out


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
    states = ChoiState.admit_stack(stack)
    assert len(states) == len(stack)
    for k, member in enumerate(stack):
        h_k, (w_k, v_k) = require_density(member)
        assert bits(h[k]) == bits(h_k) and bits(w[k]) == bits(w_k) and bits(v[k]) == bits(v_k)
        assert bits(v_k) == bits(np.linalg.eigh(h_k)[1][:, ::-1])
        one = ChoiState(member)
        assert bits(states[k].matrix) == bits(one.matrix) and states[k].d == one.d == d
        assert all(bits(a) == bits(b) for a, b in zip(states[k]._eig, one._eig))
        assert not any(a.flags.writeable for a in (states[k].matrix, *states[k]._eig))
    # the tied spectra really are tied
    assert (w[-2] == w[-2][0]).all() and (w[-1][1:] == 0).all()
    # any leading axes are read in row-major order; one matrix is a stack of one
    grid = ChoiState.admit_stack(stack[:10].reshape(2, 5, d * d, d * d))
    assert [bits(s.matrix) for s in grid] == [bits(s.matrix) for s in states[:10]]
    assert [bits(s.matrix) for s in ChoiState.admit_stack(stack[3])] == [bits(states[3].matrix)]
    assert ChoiState.admit_stack(np.zeros((0, d * d, d * d))) == []


def test_unitary_and_hermitian_stacks_pass_through_unchanged():
    rng = np.random.default_rng(7)
    unitaries = np.stack([haar_unitary(3, rng) for _ in range(5)])
    assert require_finite(unitaries, stacked=True) is unitaries
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
            ChoiState.admit_stack(stack)
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
