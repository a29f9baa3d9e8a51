"""Dense complex matrix kernel.

Everything downstream runs through the primitives here: input admission,
Hermitian eigendecomposition, PSD square roots, the two partial traces over
the |i alpha> product basis and column-stacking vectorization.

Basis convention, fixed project wide: the tensor basis ket |i alpha> of the
input(x)output space maps to linear index ``i*d + alpha`` (input index
major).  Vectorization is column stacking, so
``vec(A X B) == np.kron(B.T, A) @ vec(X)``.

``cholesky_lo`` and ``inv`` are numpy's gufuncs behind ``np.linalg.cholesky`` and
``np.linalg.inv``, called without those wrappers' dtype and squareness checks and their
errstate, which the complex square stacks formed here never need.  A member that is not
positive definite (or is singular) comes back all NaN and raises the invalid flag.
"""

from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo, inv

from .exceptions import (
    DimensionMismatchError,
    InvalidKrausError,
    NotDensityMatrixError,
    NotFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    NotUnitaryError,
    WeightError,
)
from .tolerances import ADMISSION_ATOL


def as_complex_matrix(a, stacked: bool = False) -> np.ndarray:
    """Coerce to a 2-D complex ndarray, or with ``stacked`` to a stack (..., r, c), without copying when possible."""
    m = np.asarray(a, dtype=complex)
    if not (m.ndim == 2 or stacked and m.ndim > 2):
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def max_abs(a) -> float:
    """Max-entry modulus, the norm used by every tolerance check."""
    m = np.asarray(a)
    return 0.0 if m.size == 0 else float(np.abs(m).max())


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def require_square(a: np.ndarray) -> int:
    """Admit a non-empty square matrix, or a stack of them on the last two axes; return its side."""
    if a.shape[-2] != a.shape[-1]:
        raise NotSquareError(f"matrix is {a.shape[-2]}x{a.shape[-1]}, not square")
    if a.shape[-1] == 0:
        raise DimensionMismatchError("matrix is empty")
    return a.shape[-1]


class HermitianEig(NamedTuple):
    """Spectrum of a Hermitian matrix, eigenvalues in nonincreasing order."""

    eigenvalues: np.ndarray  # real, descending
    eigenvectors: np.ndarray  # orthonormal columns, matching order


def _spectrum(m: np.ndarray) -> HermitianEig:
    """Spectrum of a Hermitian matrix, or of each in a stack: ``eigh``'s ascending order reversed."""
    w, v = np.linalg.eigh(m)
    return HermitianEig(w[..., ::-1], v[..., ::-1])


# Admission, the one place that decides whether an input is acceptable.  Each
# check reads ``not residual <= tol``, so NaN is rejected, and magnitude is
# checked before any arithmetic; ``error`` is the type the entry point raises.
# With ``stacked`` the finite, Hermitian, density and unitary admissions take a
# stack (..., n, n) and check every member in one pass; only a failure looks
# for the first failing member.  Only admissions carry ``stacked``: kernels
# (``partial_trace_out``, ``psd_root``, ``channel.cptp_residuals``) take a
# matrix or a stack; reports hold one object.
# Entries are admitted up to MAX_ENTRY in modulus, so the products the library
# forms stay finite: the longest chain between two admissions, Kraus entries to
# sandwich stack to superoperation matrix or outcome weights, reaches about
# n * d**4 * MAX_ENTRY**4 for n Choi-space Kraus operators, below 2**1024 while
# n * d**4 < 2**24.
MAX_ENTRY = 2.0**250


def _reject(error, what: str, values, passed, message: str):
    """Raise ``error`` with ``message`` filled in by the first failing member's name and value.

    A stack member is named ``what (member k)``; a single matrix, ``what``.
    """
    k = np.unravel_index(np.argmin(passed), np.shape(passed))
    raise error(message.format(f"{what} (member {', '.join(map(str, k))})" if k else what, values[k]))


def require_finite(a, error=NotFiniteError, what: str = "matrix", stacked: bool = False) -> np.ndarray:
    """Admit a 2-D matrix, or a stack, whose entries are finite and at most MAX_ENTRY in modulus."""
    m = as_complex_matrix(a, stacked)
    if not max_abs(m) <= MAX_ENTRY:
        found = np.where(np.isfinite(m).all(axis=(-2, -1)), "an entry above 2^250 in modulus", "a non-finite entry")
        _reject(error, what, found, np.abs(m).max(axis=(-2, -1)) <= MAX_ENTRY, "{} has {}")
    return m


def require_hermitian(a, error=NotHermitianError, what: str = "matrix", stacked: bool = False) -> np.ndarray:
    """Admit a finite square matrix, or a stack, that is Hermitian to the admission tolerance."""
    m = require_finite(a, error, what, stacked)
    require_square(m)
    skew = m - dagger(m)
    if not max_abs(skew) <= ADMISSION_ATOL:
        r = np.abs(skew).max(axis=(-2, -1))
        _reject(error, what, r, r <= ADMISSION_ATOL, "{} is not Hermitian within tolerance (residual {:.3e})")
    return m


def _require_psd(lowest, error, what: str) -> None:
    if not lowest.min(initial=np.inf) >= -ADMISSION_ATOL:
        message = f"{{}} has eigenvalue {{:.3e}} below -{ADMISSION_ATOL:.1e}"
        _reject(error, what, lowest, lowest >= -ADMISSION_ATOL, message)


def require_density(a, error=NotDensityMatrixError, what: str = "state", stacked: bool = False) -> tuple:
    """Admit a density matrix, or a stack: finite, Hermitian, PSD and trace one.

    Returns its Hermitian part (a + a+)/2 together with that part's
    spectrum, so callers never eigendecompose an admitted matrix twice.
    """
    m = require_hermitian(a, error, what, stacked)
    h = (m + dagger(m)) / 2.0
    eig = _spectrum(h)
    _require_psd(eig.eigenvalues[..., -1], error, what)
    trace = np.trace(h, axis1=-2, axis2=-1).real
    off = abs(trace - 1.0)
    if not off.max(initial=0.0) <= ADMISSION_ATOL:
        _reject(error, what, trace, off <= ADMISSION_ATOL, "{} has trace {:.12f}, expected 1")
    return h, eig


def require_unitary(a, error=NotUnitaryError, what: str = "matrix", dim=None, stacked: bool = False) -> np.ndarray:
    """Admit a finite matrix, or a stack, with U+U = I to the admission tolerance (and side ``dim``, if given)."""
    m = require_finite(a, error, what, stacked)
    if dim is not None and m.shape[-2:] != (dim, dim):
        raise error(f"expected a {dim}x{dim} unitary, got shape {m.shape}")
    gram = dagger(m) @ m - np.eye(require_square(m))
    if not max_abs(gram) <= ADMISSION_ATOL:
        r = np.abs(gram).max(axis=(-2, -1))
        _reject(error, what, r, r <= ADMISSION_ATOL, "{} is not unitary (residual {:.3e})")
    return m


def require_kraus(operators, what: str) -> np.ndarray:
    """Admit a non-empty set of finite, equally shaped square matrices as one read-only (n, d, d) stack.

    The stack is a copy, so later writes to ``operators`` cannot reach it.
    """
    ks = [require_finite(k, InvalidKrausError, f"{what} operator") for k in operators]
    if not ks:
        raise InvalidKrausError(f"empty {what} list")
    d = require_square(ks[0])
    if any(k.shape != (d, d) for k in ks):
        raise DimensionMismatchError(f"{what} operators must share one square shape")
    stack = np.stack(ks)
    stack.setflags(write=False)
    return stack


def require_weights(weights) -> np.ndarray:
    """Admit finite, nonnegative weights summing to one to the admission tolerance."""
    p = np.asarray(weights, dtype=float).reshape(-1)
    admitted = p.size > 0 and max_abs(p) <= MAX_ENTRY and (p >= 0).all()
    if not (admitted and abs(p.sum() - 1.0) <= ADMISSION_ATOL):
        raise WeightError(f"weights must be finite, nonnegative and sum to 1, got {weights}")
    return p


def require_mixture(weights, matrices, what: str) -> np.ndarray:
    """Admit a convex mixture, one equally shaped matrix per weight, and return sum_n p_n M_n."""
    p = require_weights(weights)
    if len(matrices) != p.size:
        raise DimensionMismatchError(f"one weight per {what} required")
    if any(m.shape != matrices[0].shape for m in matrices):
        raise DimensionMismatchError(f"{what}s must share one dimension")
    return sum(w * m for w, m in zip(p, matrices))


def eig_hermitian(a) -> HermitianEig:
    """Eigendecompose a Hermitian matrix; spectrum sorted descending.

    Rejects non-finite, non-square or non-Hermitian (beyond the admission
    tolerance) input.  The reconstruction V diag(w) V+ is accurate to 1e-10
    in max-entry norm for the matrix sizes this package works at.
    """
    return _spectrum(require_hermitian(a))


def psd_root(eig: HermitianEig) -> np.ndarray:
    """Hermitian square root from the spectrum of an admitted PSD matrix, or of each in a stack.

    Eigenvalues at or below relative machine-noise scale (negative round-off
    included) are clamped to zero: taking square roots would amplify
    representation noise from ~1e-16 to ~1e-8, which would wreck downstream
    fidelity computations on rank-deficient states.
    """
    w, v = eig
    noise_floor = 64 * np.finfo(float).eps * np.maximum(w[..., :1], 0.0)
    w = np.where(w <= noise_floor, 0.0, w)
    s = (v * np.sqrt(w)[..., None, :]) @ dagger(v)
    return (s + dagger(s)) / 2.0


def sqrt_psd(a) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues below -ADMISSION_ATOL raise NotPSDError."""
    eig = eig_hermitian(a)
    _require_psd(eig.eigenvalues[-1], NotPSDError, "matrix")
    return psd_root(eig)


def dimension(size: int, power: int, what: str) -> int:
    """The integer d >= 2 with d**power == size: the one rule that reads d off an array's size."""
    d = round(size ** (1.0 / power))
    if not (d >= 2 and d**power == size):
        raise DimensionMismatchError(f"{what} has size {size}, not d^{power} for any integer d of at least 2")
    return d


def partial_trace_out(a) -> np.ndarray:
    """Trace out the second (output) factor of a matrix, or of each in a stack: B[i,j] = sum_a A[i*d+a, j*d+a]."""
    m = as_complex_matrix(a, stacked=True)
    d = dimension(require_square(m), 2, "partial trace input")
    return np.trace(m.reshape(*m.shape[:-2], d, d, d, d), axis1=-3, axis2=-1)


def partial_trace_in(a) -> np.ndarray:
    """Trace out the first (input) factor: B[a,b] = sum_i A[i*d+a, i*d+b]."""
    m = as_complex_matrix(a)
    d = dimension(require_square(m), 2, "partial trace input")
    return np.trace(m.reshape(d, d, d, d), axis1=0, axis2=2)


def vectorize(a) -> np.ndarray:
    """Column-stack a square matrix, or each matrix of a stack (..., n, n), into (..., n^2).

    Entry i*n + a is A[a, i].  This is the one place that spells the
    Kraus<->Choi-row rule (I (x) K)|phi> = vec(K)/sqrt d.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2:
        raise DimensionMismatchError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    require_square(m)
    return np.swapaxes(m, -1, -2).reshape(*m.shape[:-2], -1)


def devectorize(v, dim: int) -> np.ndarray:
    """Inverse of vectorize on the last axis, which must have length dim**2."""
    vec = np.asarray(v, dtype=complex)
    if vec.shape[-1:] != (dim * dim,):
        raise DimensionMismatchError(f"vector of shape {vec.shape} cannot fill a {dim}x{dim} matrix")
    return np.swapaxes(vec.reshape(*vec.shape[:-1], dim, dim), -1, -2)
