"""Superoperations: linear maps acting on Choi states.

A superoperation can be built three ways:

* as a sandwich (post, pre) of two operations, acting by
  Phi -> post o Phi o pre;
* as an operator-sum map C -> sum_n K_n C K_n+ with Kraus operators K_n
  living on the d^2-dimensional Choi space;
* directly as a d^4 x d^4 matrix acting on column-stacked Choi matrices.

A sandwich induces the Choi-space Kraus set {pre_m^T (x) post_p}, so every
form reduces to the canonical matrix representation, and all membership
tests below are exact linear-algebra identities on those matrices.  Each
is built from the (n, d^2, d^2) Kraus stack in one contraction.

The phase-out superoperation deletes the off-diagonal Choi entries; its
sandwich form (dephase outputs, dephase inputs) and its Kraus form
{|ia><ia|} produce the same matrix, which the test suite asserts.
``phase_out(d)`` is built once per d, and it and its arrays are read-only.

Membership tests, with T the phase-out matrix and M the superoperation
matrix:

* nongenerating (MISO):      M T = T M T
* nonactivating (MISO*):     T M = T M T
* de-phase incoherent (DISO): both.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .channel import (
    ChoiState,
    CptpReport,
    QuantumOperation,
    dephasing_operation,
    is_cptp,
    random_cptp,
    random_incoherent_cptp,
    rng_from,
)
from .exceptions import (
    DimensionMismatchError,
    GeneratorExhaustedError,
    InputNotCPTPError,
    InvalidKrausError,
    NoKrausFormError,
)
from .linalg import dagger, devectorize, max_abs, require_finite, require_kraus, require_weights, vectorize
from .tolerances import admission_atol


class Superoperation:
    """A linear map on Choi matrices with a canonical matrix form, read-only once built."""

    def __init__(self, d: int, form: str, *, post=None, pre=None, choi_kraus=None, matrix=None):
        vars(self).update(d=d, form=form, post=post, pre=pre, _choi_kraus=choi_kraus, _matrix=matrix)

    def __setattr__(self, name, value):
        raise AttributeError(f"Superoperation.{name} is read-only")

    @classmethod
    def from_sandwich(cls, post: QuantumOperation, pre: QuantumOperation) -> "Superoperation":
        if post.dim != pre.dim:
            raise DimensionMismatchError("sandwich halves must share one dimension")
        return cls(post.dim, "sandwich", post=post, pre=pre)

    @classmethod
    def from_kraus_on_choi(cls, operators) -> "Superoperation":
        stack = require_kraus(operators, InvalidKrausError, "Choi-space Kraus")
        n = stack.shape[1]
        d = int(round(np.sqrt(n)))
        if d * d != n:
            raise DimensionMismatchError("Choi-space Kraus operators must be d^2 x d^2")
        return cls(d, "kraus_on_choi", choi_kraus=stack)

    @classmethod
    def from_matrix(cls, matrix, d: int) -> "Superoperation":
        if d < 1:
            raise DimensionMismatchError(f"dimension must be positive, got {d}")
        m = require_finite(matrix, what="superoperation matrix").copy()
        if m.shape != (d**4, d**4):
            raise DimensionMismatchError(f"expected {d**4}x{d**4} matrix, got {m.shape}")
        m.setflags(write=False)
        return cls(d, "matrix", matrix=m)

    @cached_property
    def choi_kraus(self) -> np.ndarray | None:
        """Read-only (n, d^2, d^2) stack of Choi-space Kraus operators, when the form has them.

        A sandwich's {pre_q^T (x) post_p}, post-major, is one broadcast product,
        bit-equal to the Kronecker products (each entry is one product b*a).
        """
        if self._choi_kraus is not None or self.form != "sandwich":
            return self._choi_kraus
        a = self.post.kraus_operators
        bt = self.pre.kraus_operators.transpose(0, 2, 1)
        dd = self.d * self.d
        stack = (bt[None, :, :, None, :, None] * a[:, None, None, :, None, :]).reshape(-1, dd, dd)
        stack.setflags(write=False)
        return stack

    @cached_property
    def matrix(self) -> np.ndarray:
        """Canonical, read-only d^4 x d^4 matrix, acting on column-stacked Choi matrices.

        sum_n conj(K_n) (x) K_n in one product: G = conj(K)^T K over the flattened
        stack holds G[(r,c),(s,t)], reordered to the Kronecker layout [(r,s),(c,t)].
        """
        if self._matrix is not None:
            return self._matrix
        dd = self.d * self.d
        ks = self.choi_kraus.reshape(-1, dd * dd)
        m = (ks.conj().T @ ks).reshape(dd, dd, dd, dd).transpose(0, 2, 1, 3).reshape(dd * dd, dd * dd)
        m.setflags(write=False)
        return m


@cache
def phase_out(d: int) -> Superoperation:
    """The superoperation that strips all off-diagonal Choi entries.

    Kraus form {|ia><ia|}; identical, as a matrix, to the sandwich of
    completely dephasing channels on the output and input sides.  Its matrix
    is the exact 0/1 diagonal mask (all products are of 0s and 1s).  Built
    once per d: every call returns the same read-only object.
    """
    if d < 2:
        raise DimensionMismatchError("phase_out requires d >= 2")
    dd = d * d
    eye = np.eye(dd, dtype=complex)
    return Superoperation.from_kraus_on_choi([np.outer(eye[m], eye[m]) for m in range(dd)])


def phase_out_sandwich(d: int) -> Superoperation:
    """Phase-out built the sandwich way: dephase outputs, dephase inputs."""
    return Superoperation.from_sandwich(dephasing_operation(d), dephasing_operation(d))


def apply(s: Superoperation, op: QuantumOperation) -> QuantumOperation:
    """Transform an operation; no trace renormalization is applied."""
    if op.dim != s.d:
        raise DimensionMismatchError(f"superoperation dim {s.d} vs operation dim {op.dim}")
    out = devectorize(s.matrix @ vectorize(op.choi.matrix), s.d * s.d)
    return QuantumOperation.from_choi(ChoiState(out, s.d))


def kraus_outcomes(s: Superoperation, op: QuantumOperation) -> list:
    """Selective outcomes (p_n, Lambda_n) of an operator-sum superoperation.

    Each branch K_n C K_n+ with weight p_n = tr(K_n C K_n+) above 1e-12 is
    renormalized to a trace-one Choi state.
    """
    if s.choi_kraus is None:
        raise NoKrausFormError("superoperation has no operator-sum form")
    if op.dim != s.d:
        raise DimensionMismatchError(f"superoperation dim {s.d} vs operation dim {op.dim}")
    branches = s.choi_kraus @ op.choi.matrix @ dagger(s.choi_kraus)
    weights = np.trace(branches, axis1=1, axis2=2).real
    total = float(weights.sum())
    if not total <= 1.0 + admission_atol():
        raise InvalidKrausError(f"outcome weights sum to {total:.9f} > 1")
    kept = [(float(p), b / p) for p, b in zip(weights, branches) if p > 1e-12]
    return [(p, QuantumOperation.from_choi(ChoiState(b, s.d))) for p, b in kept]


def compose(s1: Superoperation, s2: Superoperation) -> Superoperation:
    """s1 after s2, i.e. (s1 o s2)(Phi) = s1(s2(Phi))."""
    if s1.d != s2.d:
        raise DimensionMismatchError("composed superoperations must share one dimension")
    return Superoperation.from_matrix(s1.matrix @ s2.matrix, s1.d)


def convex_combine(weights, sops) -> Superoperation:
    p = require_weights(weights)
    if len(sops) != p.size:
        raise DimensionMismatchError("one weight per superoperation required")
    d = sops[0].d
    if any(s.d != d for s in sops):
        raise DimensionMismatchError("combined superoperations must share one dimension")
    m = sum(w * s.matrix for w, s in zip(p, sops))
    return Superoperation.from_matrix(m, d)


CLASS_NAMES = ("miso", "miso_star", "diso")


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict and residual per class: in_{name} and {name}_residual for each name in CLASS_NAMES."""

    in_miso: bool
    in_miso_star: bool
    in_diso: bool
    miso_residual: float
    miso_star_residual: float
    diso_residual: float


def classify(s: Superoperation) -> ClassificationReport:
    """Test the three membership conditions on the matrix representation.

    T is the 0/1 projector onto the vec indices j*(d^2+1) of the Choi
    diagonal (``on``), so max|MT - TMT| is max|M[off, on]|, max|TM - TMT| is
    max|M[on, off]|, and max|MT - TM| is the larger of the two.  Products
    with a 0/1 diagonal are exact, so these equal the product-form residuals
    bit for bit, without forming T or any d^4 x d^4 product.
    """
    m = s.matrix
    dd = s.d * s.d
    on = np.zeros(dd * dd, dtype=bool)
    on[:: dd + 1] = True
    r_miso = max_abs(m[np.ix_(~on, on)])
    r_star = max_abs(m[np.ix_(on, ~on)])
    tol = admission_atol()
    in_miso = r_miso <= tol
    in_star = r_star <= tol
    return ClassificationReport(
        in_miso=in_miso,
        in_miso_star=in_star,
        in_diso=in_miso and in_star,
        miso_residual=r_miso,
        miso_star_residual=r_star,
        diso_residual=max(r_miso, r_star),
    )


@dataclass(frozen=True)
class StructuralReport:
    """Composition-with-phase-out relations for a single superoperation."""

    phaseout_after_is_miso: bool
    phaseout_both_sides_is_miso: bool
    input_in_miso_star: bool
    phaseout_after_is_miso_star: bool | None
    phaseout_before_is_miso_star: bool | None

    @property
    def ok(self) -> bool:
        holds = self.phaseout_after_is_miso and self.phaseout_both_sides_is_miso
        if self.input_in_miso_star:
            holds = holds and self.phaseout_after_is_miso_star and self.phaseout_before_is_miso_star
        return holds


def check_structural_relations(s: Superoperation) -> StructuralReport:
    """Phase-out composition always lands in MISO; MISO* survives both sides."""
    theta = phase_out(s.d)
    after = classify(compose(theta, s))
    both = classify(compose(theta, compose(s, theta)))
    own = classify(s)
    if own.in_miso_star:
        before = classify(compose(s, theta))
        star_after = after.in_miso_star
        star_before = before.in_miso_star
    else:
        star_after = None
        star_before = None
    return StructuralReport(
        phaseout_after_is_miso=after.in_miso,
        phaseout_both_sides_is_miso=both.in_miso,
        input_in_miso_star=own.in_miso_star,
        phaseout_after_is_miso_star=star_after,
        phaseout_before_is_miso_star=star_before,
    )


def check_cptp_preservation(op: QuantumOperation) -> CptpReport:
    """Phase-out must map a CPTP operation to a CPTP operation."""
    base = is_cptp(op.choi)
    if not base.ok:
        raise InputNotCPTPError(
            f"input is not CPTP (min eig {base.min_eigenvalue:.3e}, "
            f"marginal residual {base.marginal_residual:.3e})"
        )
    return is_cptp(apply(phase_out(op.dim), op).choi)


# ---------------------------------------------------------------------------
# Class-member sampling and the closure harness
# ---------------------------------------------------------------------------

def random_sandwich(d: int, rng) -> Superoperation:
    """Sandwich of two random CPTP channels with small random environments."""
    if d < 2:
        raise DimensionMismatchError(f"random superoperations require d >= 2, got d={d}")
    rng = rng_from(rng)
    post = random_cptp(d, int(rng.integers(1, 3)), rng)
    pre = random_cptp(d, int(rng.integers(1, 3)), rng)
    return Superoperation.from_sandwich(post, pre)


def random_incoherent_sandwich(d: int, rng) -> Superoperation:
    rng = rng_from(rng)
    return Superoperation.from_sandwich(
        random_incoherent_cptp(d, rng), random_incoherent_cptp(d, rng)
    )


def sample_class_member(name: str, d: int, rng) -> Superoperation:
    """Draw a verified member of one of the three superoperation classes.

    MISO members apply phase-out after a random sandwich (or are
    sandwiches of incoherent channels), MISO* members apply phase-out
    first, DISO members apply it on both sides.  One draw is enough: each
    construction is an exact member of its class, since phase-out is a 0/1
    mask and an incoherent Kraus operator maps basis states to basis states.
    The classifier still re-checks the draw, and a failed check raises.
    """
    if name not in CLASS_NAMES:
        raise ValueError(f"unknown class {name!r}; expected one of {CLASS_NAMES}")
    rng = rng_from(rng)
    theta = phase_out(d)
    base = random_sandwich(d, rng)
    if name == "miso":
        candidate = (
            compose(theta, base)
            if rng.uniform() < 0.5
            else random_incoherent_sandwich(d, rng)
        )
    elif name == "miso_star":
        candidate = compose(base, theta)
    else:
        candidate = compose(theta, compose(base, theta))
    if not getattr(classify(candidate), f"in_{name}"):
        raise GeneratorExhaustedError(f"the sampled {name} candidate failed its class check")
    return candidate


COMBINATION_WEIGHTS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class ClosureViolation:
    class_name: str
    pair_index: int
    kind: str  # "compose" or "convex p=..."
    report: ClassificationReport


@dataclass
class ClosureReport:
    class_name: str
    pairs: int
    violations: list = field(default_factory=list)
    max_residual: float = 0.0
    intersection_consistent: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations and self.intersection_consistent


def closure_harness(name: str, samples: int, seed, d: int = 2) -> ClosureReport:
    """Check closure of a superoperation class under composition and mixing.

    Draws ``samples`` pairs of verified class members; composes them and
    combines them convexly at the fixed weight grid, classifying every
    result.  Also records whether the de-phase incoherent verdict always
    agrees with the commutation form of the paper, M T = T M.  With no pairs
    it would pass without checking anything, so ``samples`` must be at least 1.
    """
    if name not in CLASS_NAMES:
        raise ValueError(f"unknown class {name!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = rng_from(seed)
    report = ClosureReport(class_name=name, pairs=samples)
    theta = phase_out(d).matrix
    for i in range(samples):
        s1 = sample_class_member(name, d, rng)
        s2 = sample_class_member(name, d, rng)
        candidates = [("compose", compose(s1, s2))]
        for p in COMBINATION_WEIGHTS:
            candidates.append((f"convex p={p}", convex_combine([p, 1.0 - p], [s1, s2])))
        for kind, candidate in candidates:
            verdict = classify(candidate)
            report.max_residual = max(report.max_residual, getattr(verdict, f"{name}_residual"))
            if not getattr(verdict, f"in_{name}"):
                report.violations.append(ClosureViolation(name, i, kind, verdict))
            m = candidate.matrix
            if verdict.in_diso != (max_abs(m @ theta - theta @ m) <= admission_atol()):
                report.intersection_consistent = False
    return report
