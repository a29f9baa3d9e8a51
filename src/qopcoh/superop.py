"""Superoperations: linear maps acting on Choi states.

A superoperation can be built three ways:

* as a sandwich (post, pre) of two operations, acting by
  Phi -> post o Phi o pre;
* as an operator-sum map C -> sum_n K_n C K_n+ with Kraus operators K_n
  living on the d^2-dimensional Choi space;
* directly as a d^4 x d^4 matrix acting on column-stacked Choi matrices.

A sandwich induces the Choi-space Kraus set {pre_m^T (x) post_p}, formed as
one (n, d^2, d^2) stack when the sandwich is built, so every form reduces to
the canonical matrix representation, and all membership tests below are
exact linear-algebra identities on those matrices.  Both Kraus forms build
their matrix in one contraction (``superop_matrices``); a matrix holds its own.

The phase-out superoperation deletes the off-diagonal Choi entries; its
sandwich form (dephase outputs, dephase inputs) and its Kraus form
{|ia><ia|} produce the same matrix, which the test suite asserts.
``phase_out(d)`` is built once per d, and it and its arrays are read-only.

Membership tests, with T the phase-out matrix and M the superoperation
matrix, read off the blocks of M that T splits: by ``classify`` for one
Superoperation, and by the sampler and the closure harness for their stacks;
the sampler and the structural relations form T M, M T and T M T as masks of M:

* nongenerating (MISO):      M T = T M T
* nonactivating (MISO*):     T M = T M T
* de-phase incoherent (DISO): both.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .channel import (
    CptpReport,
    QuantumOperation,
    dephasing_operation,
    is_cptp,
    kraus_from_ginibre,
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
from .linalg import (
    dagger,
    devectorize,
    dimension,
    require_finite,
    require_kraus,
    require_mixture,
    require_square,
    vectorize,
)
from .tolerances import ADMISSION_ATOL


class Superoperation:
    """A linear map on Choi matrices with a canonical matrix form, read-only once built.

    ``choi_kraus`` is the read-only (n, d^2, d^2) stack of Choi-space Kraus
    operators, or None for the matrix form.
    """

    def __init__(self, d: int, form: str, *, post=None, pre=None, choi_kraus=None, matrix=None):
        vars(self).update(d=d, form=form, post=post, pre=pre, choi_kraus=choi_kraus)
        if matrix is not None:
            vars(self)["matrix"] = matrix  # shadows the cached_property below, so nothing is built

    def __setattr__(self, name, value):
        raise AttributeError(f"Superoperation.{name} is read-only")

    @classmethod
    def from_sandwich(cls, post: QuantumOperation, pre: QuantumOperation) -> "Superoperation":
        """Phi -> post o Phi o pre, with its Choi-space Kraus stack {pre_q^T (x) post_p}, post-major.

        The stack is one broadcast product, bit-equal to the Kronecker
        products (each entry is one product b*a).  The halves' Kraus entries
        are admitted up to 2^250, so the stack stays below 2^500; the matrix
        build admits what it forms from the stack.
        """
        if post.d != pre.d:
            raise DimensionMismatchError("sandwich halves must share one dimension")
        a = post.kraus_operators
        bt = pre.kraus_operators.transpose(0, 2, 1)
        dd = post.d * post.d
        stack = (bt[None, :, :, None, :, None] * a[:, None, None, :, None, :]).reshape(-1, dd, dd)
        stack.setflags(write=False)
        return cls(post.d, "sandwich", post=post, pre=pre, choi_kraus=stack)

    @classmethod
    def from_kraus_on_choi(cls, operators) -> "Superoperation":
        stack = require_kraus(operators, "Choi-space Kraus")
        return cls(dimension(stack.shape[1], 2, "Choi-space Kraus operator"), "kraus_on_choi", choi_kraus=stack)

    @classmethod
    def from_matrix(cls, matrix) -> "Superoperation":
        m = require_finite(matrix, what="superoperation matrix").copy()
        d = dimension(require_square(m), 4, "superoperation matrix")
        m.setflags(write=False)
        return cls(d, "matrix", matrix=m)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Canonical, read-only d^4 x d^4 matrix on column-stacked Choi matrices: ``superop_matrices`` of one stack."""
        return superop_matrices(self.choi_kraus)


def superop_matrices(choi_kraus: np.ndarray) -> np.ndarray:
    """Read-only sum_n conj(K_n) (x) K_n of a Choi-space Kraus stack (n, d^2, d^2), or of each in (..., n, d^2, d^2):
    conj(K)^T K over each flattened stack, reordered to the Kronecker layout.  Admitted Kraus entries keep it finite (a
    sandwich stack's stay below 2^500), but it can exceed 2^250, so it is admitted like a matrix given directly."""
    dd, lead = choi_kraus.shape[-1], choi_kraus.shape[:-3]
    ks = choi_kraus.reshape(*lead, -1, dd * dd)
    m = (dagger(ks) @ ks).reshape(*lead, dd, dd, dd, dd).swapaxes(-3, -2).reshape(*lead, dd * dd, dd * dd)
    m.setflags(write=False)
    return require_finite(m, what="superoperation matrix", stacked=True)


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
    if op.d != s.d:
        raise DimensionMismatchError(f"superoperation dim {s.d} vs operation dim {op.d}")
    out = devectorize(s.matrix @ vectorize(op.choi.matrix), s.d * s.d)
    return QuantumOperation.from_choi(out)


def kraus_outcomes(s: Superoperation, op: QuantumOperation) -> list:
    """Selective outcomes (p_n, Lambda_n) of an operator-sum superoperation.

    Each branch K_n C K_n+ with weight p_n = tr(K_n C K_n+) above 1e-12 is
    renormalized to a trace-one Choi state.
    """
    if s.choi_kraus is None:
        raise NoKrausFormError("superoperation has no operator-sum form")
    if op.d != s.d:
        raise DimensionMismatchError(f"superoperation dim {s.d} vs operation dim {op.d}")
    branches = s.choi_kraus @ op.choi.matrix @ dagger(s.choi_kraus)
    weights = np.trace(branches, axis1=1, axis2=2).real
    total = float(weights.sum())
    if not total <= 1.0 + ADMISSION_ATOL:
        raise InvalidKrausError(f"outcome weights sum to {total:.9f} > 1")
    kept = [(float(p), b / p) for p, b in zip(weights, branches) if p > 1e-12]
    return [(p, QuantumOperation.from_choi(b)) for p, b in kept]


def compose(s1: Superoperation, s2: Superoperation) -> Superoperation:
    """s1 after s2, i.e. (s1 o s2)(Phi) = s1(s2(Phi))."""
    if s1.d != s2.d:
        raise DimensionMismatchError("composed superoperations must share one dimension")
    return Superoperation.from_matrix(s1.matrix @ s2.matrix)


def convex_combine(weights, sops) -> Superoperation:
    m = require_mixture(weights, [s.matrix for s in sops], "superoperation")
    return Superoperation.from_matrix(m)


CLASS_NAMES = ("miso", "miso_star", "diso")
_CLASS_BLOCKS = {"miso": [0], "miso_star": [1], "diso": [0, 1]}  # a class residual: max over these _block_residuals


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict and residual per class: in_{name} and {name}_residual for each name in CLASS_NAMES."""

    in_miso: bool
    in_miso_star: bool
    in_diso: bool
    miso_residual: float
    miso_star_residual: float
    diso_residual: float


@cache
def _block_indices(d: int) -> np.ndarray:
    """Flat indices of the blocks M[off, on] and M[on, off] of a d^4 x d^4 matrix, as two rows, built once per d."""
    n = d**4
    on = np.arange(0, n, d * d + 1)
    off = np.setdiff1d(np.arange(n), on)
    return np.stack([(off[:, None] * n + on).ravel(), (on[:, None] * n + off).ravel()])


def _block_residuals(matrices: np.ndarray, d: int) -> np.ndarray:
    """max|M[off, on]| and max|M[on, off]| on the last axis, for one d^4 x d^4 matrix or each of a stack."""
    return np.abs(matrices.reshape(*matrices.shape[:-2], -1).take(_block_indices(d), axis=-1)).max(axis=-1)


def _phase_masks(d: int) -> dict:
    """Where T M (rows), M T (columns) and T M T (both) keep a d^4 x d^4 matrix M: each class's member mask."""
    on = phase_out(d).matrix.diagonal() != 0
    return {"miso": on[:, None], "miso_star": on, "diso": on[:, None] & on}


def classify(s: Superoperation) -> ClassificationReport:
    """Test the three membership conditions on the matrix representation.

    T is the 0/1 projector onto the vec indices j*(d^2+1) of the Choi
    diagonal (``on``), so max|MT - TMT| is max|M[off, on]|, max|TM - TMT| is
    max|M[on, off]|, and max|MT - TM| is the larger of the two.  Products
    with a 0/1 diagonal are exact, so these equal the product-form residuals
    bit for bit, without forming T or any d^4 x d^4 product.
    """
    r_miso, r_star = _block_residuals(s.matrix, s.d).tolist()
    residuals = (r_miso, r_star, max(r_miso, r_star))
    return ClassificationReport(*(x <= ADMISSION_ATOL for x in residuals), *residuals)


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
    """Phase-out composition always lands in MISO; MISO* survives both sides.

    T M, T M T and M T are masks of M (bit-equal to ``compose`` with ``phase_out``), and every verdict is the one
    ``classify`` gives, from one ``_block_residuals`` call on them and M."""
    masks = _phase_masks(s.d)
    phased = [np.where(masks[name], s.matrix, 0) for name in ("miso", "diso", "miso_star")]
    held = _block_residuals(np.stack([*phased, s.matrix]), s.d) <= ADMISSION_ATOL
    (after, star_after), (both, _), (_, star_before), (_, star) = held.tolist()
    return StructuralReport(after, both, star, star_after if star else None, star_before if star else None)


def check_cptp_preservation(op: QuantumOperation) -> CptpReport:
    """Phase-out must map a CPTP operation to a CPTP operation."""
    base = is_cptp(op.choi)
    if not base.ok:
        raise InputNotCPTPError(
            f"input is not CPTP (min eig {base.min_eigenvalue:.3e}, "
            f"marginal residual {base.marginal_residual:.3e})"
        )
    return is_cptp(apply(phase_out(op.d), op).choi)


# ---------------------------------------------------------------------------
# Class-member sampling and the closure harness
# ---------------------------------------------------------------------------

def random_incoherent_sandwich(d: int, rng) -> Superoperation:
    rng = rng_from(rng)
    return Superoperation.from_sandwich(
        random_incoherent_cptp(d, rng), random_incoherent_cptp(d, rng)
    )


def sample_superoperations(names, d: int, rng) -> list:
    """Draw one superoperation per entry of ``names``: a random sandwich for None, else a verified class member.

    Takes every rng draw first, entry after entry (the sandwich's two halves, raw draws of random CPTP channels with
    environment 1 or 2; for miso a branch, and on its incoherent branch two incoherent channels), then builds them all
    with one ``kraus_from_ginibre``.  MISO members apply phase-out after the sandwich (or are sandwiches of incoherent
    channels), MISO* members apply it first, DISO members on both sides, as the 0/1 diagonal mask it is.  Each is an
    exact member of its class, as an incoherent Kraus operator maps basis states to basis states.  Class members are
    built by one ``superop_matrices`` call per Kraus count and re-checked by their block residuals (a failure raises);
    a random sandwich builds its matrix only when it is read.
    """
    if d < 2:
        raise DimensionMismatchError(f"random superoperations require d >= 2, got d={d}")
    unknown = [name for name in names if name is not None and name not in CLASS_NAMES]
    if unknown:
        raise ValueError(f"unknown class {unknown[0]!r}; expected one of {CLASS_NAMES}")
    rng = rng_from(rng)
    draws, incoherent = [], {}
    for k, name in enumerate(names):
        draws += [rng.standard_normal((2, n := d * int(rng.integers(1, 3)), n)) for _ in range(2)]  # post, then pre
        if name == "miso" and not rng.uniform() < 0.5:
            incoherent[k] = random_incoherent_sandwich(d, rng)
    halves = [QuantumOperation("kraus", kraus=kraus) for kraus in kraus_from_ginibre(d, draws)]
    sandwiches = zip(halves[0::2], halves[1::2])  # (post, pre) per entry
    drawn = [incoherent.get(k) or Superoperation.from_sandwich(*pair) for k, pair in enumerate(sandwiches)]
    sizes = {k: len(drawn[k].choi_kraus) for k, name in enumerate(names) if name is not None}  # Kraus counts
    masks = _phase_masks(d)
    for size in dict.fromkeys(sizes.values()):  # each Kraus count once
        group = [k for k in sizes if sizes[k] == size]
        built = superop_matrices(np.stack([drawn[k].choi_kraus for k in group]))
        built = np.stack([m if k in incoherent else np.where(masks[names[k]], m, 0) for k, m in zip(group, built)])
        built.setflags(write=False)
        for k, m, r in zip(group, built, _block_residuals(built, d)):
            if not r[_CLASS_BLOCKS[names[k]]].max() <= ADMISSION_ATOL:
                raise GeneratorExhaustedError(f"the sampled {names[k]} candidate failed its class check")
            if k in incoherent:
                vars(drawn[k])["matrix"] = m  # fills the cached property, as its first read would
            else:
                drawn[k] = Superoperation(d, "matrix", matrix=m)
    return drawn


def random_sandwich(d: int, rng) -> Superoperation:
    """Sandwich of two random CPTP channels with small random environments."""
    return sample_superoperations([None], d, rng)[0]


def sample_class_member(name: str, d: int, rng) -> Superoperation:
    """Draw a verified member of one of the three superoperation classes (see ``sample_superoperations``)."""
    return sample_superoperations([name], d, rng)[0]


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
    """``closure_of`` on ``samples`` pairs of members drawn from ``seed``; at least 1, as no pairs check nothing."""
    if name not in CLASS_NAMES:
        raise ValueError(f"unknown class {name!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return closure_of(name, sample_superoperations([name] * (2 * samples), d, seed))


def closure_of(name: str, members: list) -> ClosureReport:
    """Closure of a class under composition and mixing, on the pairs of its members (0, 1), (2, 3), ...

    A pair's composition and convex combinations at the weight grid form one (6, d^4, d^4) stack, admitted once; its
    block residuals give the verdicts.  The de-phase incoherent verdicts are compared with the paper's commutation
    form M T = T M, a batched matrix product: the one check that does not read the block index sets, so "diso equals
    miso intersection miso*" fails only if those sets are wrong.  A mask-form commutator would share them.
    """
    d = members[0].d
    theta = phase_out(d).matrix
    weights = np.array(COMBINATION_WEIGHTS)[:, None, None]
    kinds = ["compose", *(f"convex p={p}" for p in COMBINATION_WEIGHTS)]
    report = ClosureReport(class_name=name, pairs=len(members) // 2)
    for i in range(report.pairs):
        m1, m2 = members[2 * i].matrix, members[2 * i + 1].matrix
        candidates = np.concatenate([(m1 @ m2)[None], weights * m1 + (1.0 - weights) * m2])
        stack = require_finite(candidates, what="superoperation matrix", stacked=True)
        r = _block_residuals(stack, d)
        residual = r[:, _CLASS_BLOCKS[name]].max(axis=-1)
        report.max_residual = max(report.max_residual, float(residual.max()))
        for k in np.flatnonzero(~(residual <= ADMISSION_ATOL)):
            verdict = classify(Superoperation.from_matrix(stack[k]))
            report.violations.append(ClosureViolation(name, i, kinds[k], verdict))
        commutes = np.abs(stack @ theta - theta @ stack).max(axis=(-2, -1)) <= ADMISSION_ATOL
        report.intersection_consistent &= bool(((r.max(axis=-1) <= ADMISSION_ATOL) == commutes).all())
    return report
