"""Quantum operations and their Choi states.

An operation acting on a d-dimensional system is carried in one of three
representations: a unitary matrix, a Kraus operator set, or its Choi
state.  A unitary or a Kraus set is held as one read-only (n, d, d) stack
of Kraus operators (n = 1 for a unitary), which every consumer reads in one
batched product.  The Choi state of an operation with Kraus operators {K_n} is

    C = sum_n (I (x) K_n) |phi><phi| (I (x) K_n)+,

with |phi> = (1/sqrt d) sum_i |ii> the normalized maximally entangled
state, so C carries trace one.  With that normalization the literal
partial-trace inversion returns the channel action divided by d;
``apply_via_choi`` multiplies the compensating factor back in so that the
identity channel maps rho to rho.

The CPTP test is: C >= 0 and the output-side marginal equals I/d.  An
operation is incoherent when C is diagonal in the fixed |i alpha> basis.
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .exceptions import (
    ConversionUndefinedError,
    DimensionMismatchError,
    InvalidChoiError,
    InvalidKrausError,
    NotUnitaryError,
)
from .linalg import (
    HermitianEig,
    as_complex_matrix,
    dagger,
    devectorize,
    dimension,
    max_abs,
    partial_trace_in,
    partial_trace_out,
    psd_root,
    require_density,
    require_finite,
    require_kraus,
    require_mixture,
    require_unitary,
    vectorize,
)
from .tolerances import ADMISSION_ATOL

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
# Eigenvalues at or below this are round-off: they carry no Kraus operator
# and no roof ensemble direction.
RANK_CUTOFF = 1e-12


def rng_from(seed) -> np.random.Generator:
    """Accept an int seed or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class ChoiState:
    """Trace-one PSD matrix on the d^2-dimensional input(x)output space; d is read off its size."""

    def __init__(self, matrix):
        self.matrix, self._eig = require_density(matrix, InvalidChoiError, "Choi matrix")
        self.d = dimension(self.matrix.shape[0], 2, "Choi matrix")
        for a in (self.matrix, *self._eig):
            a.setflags(write=False)

    @property
    def largest_eigenvalue(self) -> float:
        return float(self._eig.eigenvalues[0])

    def is_pure(self) -> bool:
        return self.largest_eigenvalue >= 1.0 - ADMISSION_ATOL

    def support(self) -> HermitianEig:
        """Eigenpairs above the rank cutoff, from the spectrum held since admission."""
        keep = self._eig.eigenvalues > RANK_CUTOFF
        return HermitianEig(self._eig.eigenvalues[keep], self._eig.eigenvectors[:, keep])

    @cached_property
    def root(self) -> np.ndarray:
        """Read-only Hermitian square root, from the spectrum held since admission."""
        root = psd_root(self._eig)
        root.setflags(write=False)
        return root

    @property
    def pure_vector(self) -> np.ndarray:
        """Dominant eigenvector; meaningful when is_pure()."""
        return self._eig.eigenvectors[:, 0]


@dataclass(frozen=True)
class CptpReport:
    """Verdict (read as ``.ok``) plus the two residuals behind the CPTP iff-condition."""

    ok: bool
    min_eigenvalue: float
    marginal_residual: float


@cache
def _maximally_mixed(d: int) -> np.ndarray:
    """I/d, read-only, built once per d."""
    m = np.eye(d) / d
    m.setflags(write=False)
    return m


def cptp_residuals(matrices: np.ndarray, eigenvalues: np.ndarray) -> tuple:
    """(ok, min_eigenvalue, marginal_residual) of C >= 0 and tr_out C = I/d for an admitted Choi matrix or stack."""
    marginal = partial_trace_out(matrices)
    min_eig = eigenvalues[..., -1]
    marginal = np.abs(marginal - _maximally_mixed(marginal.shape[-1])).max(axis=(-2, -1))
    return (min_eig >= -ADMISSION_ATOL) & (marginal <= ADMISSION_ATOL), min_eig, marginal


def is_cptp(choi: ChoiState) -> CptpReport:
    """The CPTP verdict of one Choi state, from ``cptp_residuals``."""
    ok, min_eig, marginal = cptp_residuals(choi.matrix, choi._eig.eigenvalues)
    return CptpReport(bool(ok), float(min_eig), float(marginal))


@dataclass(frozen=True)
class IncoherenceReport:
    """Verdict (read as ``.ok``) plus the largest off-diagonal Choi entry."""

    ok: bool
    max_offdiagonal: float


def is_incoherent_operation(choi: ChoiState) -> IncoherenceReport:
    """Incoherent iff the Choi matrix is diagonal in the |i alpha> basis."""
    off = choi.matrix - np.diag(np.diag(choi.matrix))
    residual = max_abs(off)
    return IncoherenceReport(residual <= ADMISSION_ATOL, residual)


class QuantumOperation:
    """An operation in unitary, Kraus, or Choi representation.

    Kraus lists are not restricted to trace non-increasing sets: the
    coherence machinery needs trace-one-Choi operations (e.g. the maximally
    coherent operation, or pure ensemble members such as |00><00|) whose
    single Kraus operator exceeds the CPTP completeness bound.  Whether an
    operation is trace preserving is read off its Choi state, by ``is_cptp``
    alone.
    """

    def __init__(self, kind: str, *, kraus=None, choi=None):
        self.d = choi.d if kraus is None else dimension(kraus.shape[1], 1, "Kraus operator")
        self.kind = kind
        self._kraus = kraus
        self._choi = choi

    @classmethod
    def from_unitary(cls, u) -> "QuantumOperation":
        stack = require_unitary(u)[None].copy()
        stack.setflags(write=False)
        return cls("unitary", kraus=stack)

    @classmethod
    def from_kraus(cls, operators) -> "QuantumOperation":
        stack = require_kraus(operators, "Kraus")
        return cls("kraus", kraus=stack)

    @classmethod
    def from_choi(cls, choi, d: int | None = None) -> "QuantumOperation":
        state = choi if isinstance(choi, ChoiState) else ChoiState(choi)
        if d is not None and d != state.d:
            raise DimensionMismatchError(f"stated d = {d}, but the Choi matrix has d = {state.d}")
        return cls("choi", choi=state)

    @property
    def unitary(self) -> np.ndarray:
        if self.kind != "unitary":
            raise NotUnitaryError(f"operation of kind {self.kind!r} carries no unitary matrix")
        return self._kraus[0]

    @cached_property
    def kraus_operators(self) -> np.ndarray:
        """Read-only (n, d, d) Kraus stack; derived by Choi eigendecomposition for kind "choi"."""
        return kraus_from_choi(self._choi) if self._kraus is None else self._kraus

    @cached_property
    def choi(self) -> ChoiState:
        if self._choi is not None:
            return self._choi
        return choi_from_operation(self)

    def apply(self, rho) -> np.ndarray:
        """Act on a density matrix, via Kraus form when available."""
        if self.kind == "choi":
            return apply_via_choi(self._choi, rho)
        r = as_complex_matrix(rho)
        if r.shape != (self.d, self.d):
            raise DimensionMismatchError(f"state shape {r.shape} does not match d={self.d}")
        require_density(r)
        ks = self.kraus_operators
        return (ks @ r @ dagger(ks)).sum(axis=0)


def choi_matrices(kraus: np.ndarray) -> np.ndarray:
    """C = V^T conj(V) of a Kraus stack (n, d, d), or of each of (..., n, d, d); row n of V is vec(K_n) / sqrt d."""
    v = vectorize(kraus) / np.sqrt(kraus.shape[-1])
    return np.swapaxes(v, -1, -2) @ v.conj()


def choi_from_operation(op: QuantumOperation) -> ChoiState:
    """Choi state of an operation given in unitary or Kraus form, from ``choi_matrices``."""
    if op.kind == "choi":
        return op.choi
    try:
        return ChoiState(choi_matrices(op.kraus_operators))
    except InvalidChoiError as exc:
        raise InvalidKrausError(f"Kraus set does not define a trace-one Choi state: {exc}") from exc


def apply_via_choi(choi: ChoiState, rho) -> np.ndarray:
    """Channel action recovered from the Choi state.

    Computes d * tr_in[(rho^T (x) I) C]; the factor d compensates the
    normalized maximally entangled state so the identity channel is the
    identity map.
    """
    r = as_complex_matrix(rho)
    d = choi.d
    if r.shape != (d, d):
        raise DimensionMismatchError(f"state shape {r.shape} does not match d={d}")
    require_density(r)
    lifted = np.kron(r.T, np.eye(d))
    return d * partial_trace_in(lifted @ choi.matrix)


def kraus_from_choi(choi: ChoiState) -> np.ndarray:
    """Read-only (n, d, d) stack of Kraus operators sqrt(d lam_n) devec(e_n) from the Choi eigenpairs.

    Eigenvalues at or below ``RANK_CUTOFF`` are dropped; the retained
    operators reproduce the channel action up to that truncation.
    """
    d = choi.d
    w, v = choi.support()
    stack = np.sqrt(d * w)[:, None, None] * devectorize(v.T, d)
    stack.setflags(write=False)
    return stack


def unitary_from_choi(choi: ChoiState) -> np.ndarray:
    """Recover U when the Choi state is pure and maximally entangled."""
    if not choi.is_pure():
        raise ConversionUndefinedError("Choi state is not pure; no unitary form exists")
    k = np.sqrt(choi.d) * devectorize(choi.pure_vector, choi.d)
    return require_unitary(k, ConversionUndefinedError, "Kraus operator of the pure Choi state")


# ---------------------------------------------------------------------------
# Named operations and random instance generators
# ---------------------------------------------------------------------------


def identity_operation(d: int) -> QuantumOperation:
    return QuantumOperation.from_unitary(np.eye(d))


def pauli_x_operation() -> QuantumOperation:
    return QuantumOperation.from_unitary(PAULI_X)


def pauli_z_operation() -> QuantumOperation:
    return QuantumOperation.from_unitary(PAULI_Z)


def hadamard_operation() -> QuantumOperation:
    return QuantumOperation.from_unitary(HADAMARD)


def dephasing_operation(d: int) -> QuantumOperation:
    """Completely dephasing channel, Kraus {|i><i|}: 0/1 entries, built as a read-only stack with nothing to admit."""
    eye = np.eye(d, dtype=complex)
    stack = eye[:, :, None] * eye[:, None, :]
    stack.setflags(write=False)
    return QuantumOperation("kraus", kraus=stack)


def mix_operations(weights, ops) -> QuantumOperation:
    """Convex mixture, realized on Choi states: C = sum_n p_n C_n."""
    c = require_mixture(weights, [op.choi.matrix for op in ops], "operation")
    return QuantumOperation.from_choi(c)


def _complex(g: np.ndarray) -> np.ndarray:  # raw draws (..., 2, n, n), real parts first
    return (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2)


def ginibre(n: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Complex n x n Ginibre matrix of the raw draw ``rng.standard_normal((2, n, n))``; with ``shape``, a stack of them
    in one draw that holds, in row-major order, what as many one-matrix calls would draw, and leaves ``rng`` there."""
    return _complex(rng.standard_normal((*shape, 2, n, n)))


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitary from a Ginibre matrix, or from each in a stack: its QR factor Q, phase-fixed."""
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phase-fixed."""
    return haar_from_ginibre(ginibre(d, rng))


def random_unitary(d: int, seed) -> QuantumOperation:
    if d < 2:
        raise DimensionMismatchError("random_unitary requires d >= 2")
    return QuantumOperation.from_unitary(haar_unitary(d, rng_from(seed)))


def kraus_from_ginibre(d: int, draws: list) -> list:
    """One read-only (env, d, d) Kraus stack per raw draw ``rng.standard_normal((2, n, n))``, n = d * env, in draw
    order: the Kraus operators K_e = (<e| (x) I) V of the Haar isometry V into environment(x)system it gives.
    The draws of one side are made complex (as ``ginibre`` does), QR-factored and admitted as one stack."""
    stacks = {}
    for n in dict.fromkeys(z.shape[-1] for z in draws):  # each side once
        index = [k for k, z in enumerate(draws) if z.shape[-1] == n]
        isometries = haar_from_ginibre(_complex(np.stack([draws[k] for k in index])))[..., :d]
        stack = np.ascontiguousarray(isometries.reshape(len(index), n // d, d, d))
        stack = require_finite(stack, InvalidKrausError, "Kraus operator", stacked=True)
        stack.setflags(write=False)
        stacks.update(zip(index, stack))
    return [stacks[k] for k in range(len(draws))]


def random_cptp(d: int, env_dim: int, seed) -> QuantumOperation:
    """Random CPTP channel via Stinespring dilation: ``kraus_from_ginibre`` of one draw."""
    if d < 2 or env_dim < 1:
        raise DimensionMismatchError("random_cptp requires d >= 2 and env_dim >= 1")
    [stack] = kraus_from_ginibre(d, [rng_from(seed).standard_normal((2, d * env_dim, d * env_dim))])
    return QuantumOperation("kraus", kraus=stack)


def random_incoherent_cptp(d: int, seed) -> QuantumOperation:
    """Random incoherent CPTP channel from a column-stochastic matrix T.

    Kraus operators sqrt(T[a,i]) |a><i| give the diagonal Choi state
    sum_{ia} (T[a,i]/d) |ia><ia| and satisfy completeness exactly.  Entries in [0, 1]: built read-only, not admitted.
    """
    if d < 2:
        raise DimensionMismatchError("random_incoherent_cptp requires d >= 2")
    rng = rng_from(seed)
    t = rng.uniform(0.05, 1.0, size=(d, d))
    t /= t.sum(axis=0, keepdims=True)
    eye = np.eye(d, dtype=complex)
    ks = (np.sqrt(t.T)[:, :, None, None] * eye[None, :, :, None] * eye[:, None, None, :]).reshape(d * d, d, d)
    ks.setflags(write=False)
    return QuantumOperation("kraus", kraus=ks)


def random_density_matrix(d: int, seed) -> np.ndarray:
    """Random full-rank density matrix from a Ginibre square."""
    rng = rng_from(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real
