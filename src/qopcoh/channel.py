"""Quantum operations and their Choi states.

An operation acting on a d-dimensional system is carried in one of three
representations: a unitary matrix, a Kraus operator list, or its Choi
state.  The Choi state of an operation with Kraus operators {K_n} is

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
from functools import cached_property

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
    kron,
    max_abs,
    partial_trace_in,
    partial_trace_out,
    require_density,
    require_finite,
    require_square,
    require_unitary,
    require_weights,
)
from .tolerances import admission_atol

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


def max_entangled_state(d: int) -> np.ndarray:
    """|phi> = (1/sqrt d) sum_i |ii> as a length-d^2 vector."""
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1.0
    return v / np.sqrt(d)


class ChoiState:
    """Trace-one PSD matrix on the d^2-dimensional input(x)output space."""

    def __init__(self, matrix, d: int | None = None):
        m = as_complex_matrix(matrix)
        n = require_square(m)
        if d is None:
            d = int(round(np.sqrt(n)))
        if d * d != n:
            raise DimensionMismatchError(f"{n}x{n} matrix is not d^2 x d^2 for d={d}")
        self.d = d
        self.matrix, self._eig = require_density(m, InvalidChoiError, "Choi matrix")
        self.matrix.setflags(write=False)

    @property
    def largest_eigenvalue(self) -> float:
        return float(self._eig.eigenvalues[0])

    def is_pure(self) -> bool:
        return self.largest_eigenvalue >= 1.0 - admission_atol()

    def support(self) -> HermitianEig:
        """Eigenpairs above the rank cutoff, from the spectrum held since admission."""
        keep = self._eig.eigenvalues > RANK_CUTOFF
        return HermitianEig(self._eig.eigenvalues[keep], self._eig.eigenvectors[:, keep])

    @property
    def pure_vector(self) -> np.ndarray:
        """Dominant eigenvector; meaningful when is_pure()."""
        return self._eig.eigenvectors[:, 0]

    @property
    def output_marginal(self) -> np.ndarray:
        return partial_trace_out(self.matrix, self.d)

    @property
    def is_cptp(self) -> bool:
        return is_cptp(self).ok


@dataclass(frozen=True)
class CptpReport:
    """Verdict plus the two residuals behind the CPTP iff-condition."""

    ok: bool
    min_eigenvalue: float
    marginal_residual: float

    def __bool__(self) -> bool:
        return self.ok


def is_cptp(choi: ChoiState) -> CptpReport:
    """C >= 0 and tr_out(C) = I/d, both to the admission tolerance."""
    tol = admission_atol()
    min_eig = float(choi._eig.eigenvalues[-1])
    marginal = max_abs(choi.output_marginal - np.eye(choi.d) / choi.d)
    return CptpReport(min_eig >= -tol and marginal <= tol, min_eig, marginal)


@dataclass(frozen=True)
class IncoherenceReport:
    ok: bool
    max_offdiagonal: float

    def __bool__(self) -> bool:
        return self.ok


def is_incoherent_operation(choi: ChoiState) -> IncoherenceReport:
    """Incoherent iff the Choi matrix is diagonal in the |i alpha> basis."""
    off = choi.matrix - np.diag(np.diag(choi.matrix))
    residual = max_abs(off)
    return IncoherenceReport(residual <= admission_atol(), residual)


def is_incoherent_kraus_operator(k) -> bool:
    """True when every column has at most one entry above the tolerance.

    Such an operator maps each basis ket to a multiple of a basis ket and
    therefore preserves diagonal (incoherent) states.
    """
    m = as_complex_matrix(k)
    return bool(np.all((~(np.abs(m) <= admission_atol())).sum(axis=0) <= 1))


class QuantumOperation:
    """An operation in unitary, Kraus, or Choi representation.

    Kraus lists are not restricted to trace non-increasing sets: the
    coherence machinery needs trace-one-Choi operations (e.g. the maximally
    coherent operation, or pure ensemble members such as |00><00|) whose
    single Kraus operator exceeds the CPTP completeness bound.  Whether a
    Kraus set is trace preserving is exposed as a property instead.
    """

    def __init__(self, dim: int, kind: str, *, unitary=None, kraus=None, choi=None):
        self.dim = dim
        self.kind = kind
        self._unitary = unitary
        self._kraus = kraus
        self._choi = choi

    @classmethod
    def from_unitary(cls, u) -> "QuantumOperation":
        m = require_unitary(u).copy()
        m.setflags(write=False)
        return cls(m.shape[0], "unitary", unitary=m)

    @classmethod
    def from_kraus(cls, operators) -> "QuantumOperation":
        ks = [require_finite(k, InvalidKrausError, "Kraus operator") for k in operators]
        if not ks:
            raise InvalidKrausError("empty Kraus list")
        d = require_square(ks[0])
        for k in ks:
            if k.shape != (d, d):
                raise DimensionMismatchError("Kraus operators must share one square shape")
        ks = tuple(k.copy() for k in ks)
        for k in ks:
            k.setflags(write=False)
        return cls(d, "kraus", kraus=ks)

    @classmethod
    def from_choi(cls, choi, d: int | None = None) -> "QuantumOperation":
        state = choi if isinstance(choi, ChoiState) else ChoiState(choi, d)
        return cls(state.d, "choi", choi=state)

    @property
    def unitary(self) -> np.ndarray:
        if self._unitary is None:
            raise NotUnitaryError(f"operation of kind {self.kind!r} carries no unitary matrix")
        return self._unitary

    @cached_property
    def kraus_operators(self) -> tuple:
        """Kraus operators; derived by Choi eigendecomposition if needed."""
        if self._kraus is not None:
            return self._kraus
        if self._unitary is not None:
            return (self._unitary,)
        return kraus_from_choi(self._choi)

    @property
    def completeness_residual(self) -> float:
        s = sum(dagger(k) @ k for k in self.kraus_operators)
        return max_abs(s - np.eye(self.dim))

    @property
    def is_trace_preserving(self) -> bool:
        return self.completeness_residual <= admission_atol()

    @cached_property
    def choi(self) -> ChoiState:
        if self._choi is not None:
            return self._choi
        return choi_from_operation(self)

    def apply(self, rho) -> np.ndarray:
        """Act on a density matrix, via Kraus form when available."""
        r = as_complex_matrix(rho)
        if r.shape != (self.dim, self.dim):
            raise DimensionMismatchError(f"state shape {r.shape} does not match dim {self.dim}")
        if self.kind == "choi":
            return apply_via_choi(self._choi, r)
        return sum(k @ r @ dagger(k) for k in self.kraus_operators)


def choi_from_operation(op: QuantumOperation) -> ChoiState:
    """Choi state of an operation given in unitary or Kraus form."""
    if op.kind == "choi":
        return op.choi
    d = op.dim
    phi = max_entangled_state(d)
    projector = np.outer(phi, phi.conj())
    c = np.zeros((d * d, d * d), dtype=complex)
    eye = np.eye(d)
    for k in op.kraus_operators:
        lifted = kron(eye, k)
        c += lifted @ projector @ dagger(lifted)
    try:
        return ChoiState(c, d)
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
    lifted = kron(r.T, np.eye(d))
    return d * partial_trace_in(lifted @ choi.matrix, d)


def matrix_elements(op: QuantumOperation) -> np.ndarray:
    """4-index tensor T[i,j,a,b] = d * <ia|C|jb> of the operation."""
    d = op.dim
    c = op.choi.matrix
    return d * c.reshape(d, d, d, d).transpose(0, 2, 1, 3)


def kraus_from_choi(choi: ChoiState) -> tuple:
    """Kraus operators from the Choi eigendecomposition.

    Eigenvalues at or below ``RANK_CUTOFF`` are dropped; the retained
    operators reproduce the channel action up to that truncation.
    """
    d = choi.d
    w, v = choi.support()
    return tuple(np.sqrt(d * lam) * vec.reshape(d, d).T for lam, vec in zip(w, v.T))


def unitary_from_choi(choi: ChoiState) -> np.ndarray:
    """Recover U when the Choi state is pure and maximally entangled."""
    if not choi.is_pure():
        raise ConversionUndefinedError("Choi state is not pure; no unitary form exists")
    k = np.sqrt(choi.d) * choi.pure_vector.reshape(choi.d, choi.d).T
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
    """Completely dephasing channel, Kraus {|i><i|}."""
    eye = np.eye(d, dtype=complex)
    return QuantumOperation.from_kraus([np.outer(eye[i], eye[i]) for i in range(d)])


def mix_operations(weights, ops) -> QuantumOperation:
    """Convex mixture, realized on Choi states: C = sum_n p_n C_n."""
    p = require_weights(weights)
    if len(ops) != p.size:
        raise DimensionMismatchError("one weight per operation required")
    d = ops[0].dim
    c = sum(w * op.choi.matrix for w, op in zip(p, ops))
    return QuantumOperation.from_choi(ChoiState(c, d))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phase-fixed."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_unitary(d: int, seed) -> QuantumOperation:
    if d < 2:
        raise DimensionMismatchError("random_unitary requires d >= 2")
    return QuantumOperation.from_unitary(haar_unitary(d, rng_from(seed)))


def random_cptp(d: int, env_dim: int, seed) -> QuantumOperation:
    """Random CPTP channel via Stinespring dilation.

    Draws a Haar isometry V from the system into environment(x)system and
    reads off Kraus operators K_e = (<e| (x) I) V.
    """
    if d < 2 or env_dim < 1:
        raise DimensionMismatchError("random_cptp requires d >= 2 and env_dim >= 1")
    rng = rng_from(seed)
    big = haar_unitary(d * env_dim, rng)
    isometry = big[:, :d]
    ks = [isometry[e * d : (e + 1) * d, :] for e in range(env_dim)]
    return QuantumOperation.from_kraus(ks)


def random_incoherent_cptp(d: int, seed) -> QuantumOperation:
    """Random incoherent CPTP channel from a column-stochastic matrix T.

    Kraus operators sqrt(T[a,i]) |a><i| give the diagonal Choi state
    sum_{ia} (T[a,i]/d) |ia><ia| and satisfy completeness exactly.
    """
    if d < 2:
        raise DimensionMismatchError("random_incoherent_cptp requires d >= 2")
    rng = rng_from(seed)
    t = rng.uniform(0.05, 1.0, size=(d, d))
    t /= t.sum(axis=0, keepdims=True)
    eye = np.eye(d, dtype=complex)
    ks = [
        np.sqrt(t[a, i]) * np.outer(eye[a], eye[i])
        for i in range(d)
        for a in range(d)
    ]
    return QuantumOperation.from_kraus(ks)


def random_density_matrix(d: int, seed) -> np.ndarray:
    """Random full-rank density matrix from a Ginibre square."""
    rng = rng_from(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real
