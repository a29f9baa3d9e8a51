"""Dense complex matrix kernel.

Everything downstream runs through the primitives here: input admission,
Hermitian eigendecomposition, PSD square roots, the two partial traces over
the |i alpha> product basis, Kronecker products and column-stacking
vectorization.

Basis convention, fixed project wide: the tensor basis ket |i alpha> of the
input(x)output space maps to linear index ``i*d + alpha`` (input index
major).  Vectorization is column stacking, so ``vec(A X B) == kron(B.T, A)
@ vec(X)``.
"""

from typing import NamedTuple

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NotDensityMatrixError,
    NotFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    NotUnitaryError,
    WeightError,
)
from .tolerances import admission_atol


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex ndarray without copying when possible."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def max_abs(a) -> float:
    """Max-entry modulus, the norm used by every tolerance check."""
    m = np.asarray(a)
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def require_square(a: np.ndarray) -> int:
    if a.shape[0] != a.shape[1]:
        raise NotSquareError(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    return a.shape[0]


class HermitianEig(NamedTuple):
    """Spectrum of a Hermitian matrix, eigenvalues in nonincreasing order."""

    eigenvalues: np.ndarray  # real, descending
    eigenvectors: np.ndarray  # orthonormal columns, matching order


def _spectrum(m: np.ndarray) -> HermitianEig:
    w, v = np.linalg.eigh(m)
    order = np.argsort(w)[::-1]
    return HermitianEig(w[order].astype(float), v[:, order])


# Admission, the one place that decides whether an input is acceptable.  Each
# check reads ``not residual <= tol``, so NaN is rejected, and finiteness is
# checked before any arithmetic; ``error`` is the type the entry point raises.


def require_finite(a, error=NotFiniteError, what: str = "matrix") -> np.ndarray:
    """Admit a 2-D matrix whose entries are all finite."""
    m = as_complex_matrix(a)
    if not np.isfinite(m).all():
        raise error(f"{what} has a non-finite entry")
    return m


def require_hermitian(a, error=NotHermitianError, what: str = "matrix") -> np.ndarray:
    """Admit a finite square matrix that is Hermitian to the admission tolerance."""
    m = require_finite(a, error, what)
    require_square(m)
    residual = max_abs(m - dagger(m))
    if not residual <= admission_atol():
        raise error(f"{what} is not Hermitian within tolerance (residual {residual:.3e})")
    return m


def _require_psd(lowest: float, error, what: str) -> None:
    tol = admission_atol()
    if not lowest >= -tol:
        raise error(f"{what} has eigenvalue {lowest:.3e} below -{tol:.1e}")


def require_density(a, error=NotDensityMatrixError, what: str = "state") -> tuple:
    """Admit a density matrix: finite, Hermitian, PSD and trace one.

    Returns its Hermitian part (a + a+)/2 together with that part's
    spectrum, so callers never eigendecompose an admitted matrix twice.
    """
    m = require_hermitian(a, error, what)
    h = (m + dagger(m)) / 2.0
    eig = _spectrum(h)
    _require_psd(eig.eigenvalues[-1], error, what)
    trace = float(np.trace(h).real)
    if not abs(trace - 1.0) <= admission_atol():
        raise error(f"{what} has trace {trace:.12f}, expected 1")
    return h, eig


def require_unitary(a, error=NotUnitaryError, what: str = "matrix", dim: int | None = None) -> np.ndarray:
    """Admit a finite matrix with U+U = I to the admission tolerance (and size ``dim``, if given)."""
    m = require_finite(a, error, what)
    if dim is not None and m.shape != (dim, dim):
        raise error(f"expected a {dim}x{dim} unitary, got shape {m.shape}")
    n = require_square(m)
    residual = max_abs(dagger(m) @ m - np.eye(n))
    if not residual <= admission_atol():
        raise error(f"{what} is not unitary (residual {residual:.3e})")
    return m


def require_weights(weights, error=WeightError) -> np.ndarray:
    """Admit finite, nonnegative weights summing to one to the admission tolerance."""
    p = np.asarray(weights, dtype=float).reshape(-1)
    admitted = p.size > 0 and np.isfinite(p).all() and (p >= 0).all()
    if not (admitted and abs(p.sum() - 1.0) <= admission_atol()):
        raise error(f"weights must be finite, nonnegative and sum to 1, got {weights}")
    return p


def eig_hermitian(a) -> HermitianEig:
    """Eigendecompose a Hermitian matrix; spectrum sorted descending.

    Rejects non-finite, non-square or non-Hermitian (beyond the admission
    tolerance) input.  The reconstruction V diag(w) V+ is accurate to 1e-10
    in max-entry norm for the matrix sizes this package works at.
    """
    return _spectrum(require_hermitian(a))


def psd_root(eig: HermitianEig) -> np.ndarray:
    """Hermitian square root from the spectrum of an admitted PSD matrix.

    Eigenvalues at or below relative machine-noise scale (negative round-off
    included) are clamped to zero: taking square roots would amplify
    representation noise from ~1e-16 to ~1e-8, which would wreck downstream
    fidelity computations on rank-deficient states.
    """
    w, v = eig
    noise_floor = 64 * np.finfo(float).eps * max(float(w[0]), 0.0)
    w = np.where(w <= noise_floor, 0.0, w)
    s = (v * np.sqrt(w)) @ dagger(v)
    return (s + dagger(s)) / 2.0


def sqrt_psd(a) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues below -admission_tol raise NotPSDError."""
    eig = eig_hermitian(a)
    _require_psd(eig.eigenvalues[-1], NotPSDError, "matrix")
    return psd_root(eig)


def _require_choi_shape(a: np.ndarray, d: int) -> None:
    if d < 1:
        raise DimensionMismatchError(f"dimension must be positive, got {d}")
    if a.shape != (d * d, d * d):
        raise DimensionMismatchError(f"expected a {d * d}x{d * d} matrix for d={d}, got {a.shape}")


def partial_trace_out(a, d: int) -> np.ndarray:
    """Trace out the second (output) factor: B[i,j] = sum_a A[i*d+a, j*d+a]."""
    m = as_complex_matrix(a)
    _require_choi_shape(m, d)
    return np.trace(m.reshape(d, d, d, d), axis1=1, axis2=3)


def partial_trace_in(a, d: int) -> np.ndarray:
    """Trace out the first (input) factor: B[a,b] = sum_i A[i*d+a, i*d+b]."""
    m = as_complex_matrix(a)
    _require_choi_shape(m, d)
    return np.trace(m.reshape(d, d, d, d), axis1=0, axis2=2)


def kron(a, b) -> np.ndarray:
    """Tensor product with (i*dB + alpha) index ordering, matching |i alpha>."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def vectorize(a) -> np.ndarray:
    """Column-stack a square matrix into a vector."""
    m = as_complex_matrix(a)
    require_square(m)
    return m.T.reshape(-1)


def devectorize(v, dim: int) -> np.ndarray:
    """Inverse of vectorize; v must have length dim**2."""
    vec = np.asarray(v, dtype=complex).reshape(-1)
    if vec.size != dim * dim:
        raise DimensionMismatchError(f"vector of length {vec.size} cannot fill a {dim}x{dim} matrix")
    return vec.reshape(dim, dim).T
