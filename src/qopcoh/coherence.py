"""Coherence quantification for quantum operations.

The measure of an operation with a *pure* Choi state is the minimum of
sqrt(1 - F) over pure incoherent states, where F is the Uhlmann fidelity.
Because the fidelity of a pure state with a basis state |ia> is just the
squared component modulus, that minimum collapses to

    sqrt(1 - max_{ia} <ia|C|ia>),

with the argmax basis state as witness (ties broken toward the smallest
linear index).  For a single-qubit unitary the same number has a closed
form in the Euler angle gamma:

    min{ sqrt(1 - cos^2(gamma/2)/2), sqrt(1 - sin^2(gamma/2)/2) },

evaluated here from the Choi diagonal, whose entries are |U[a,i]|^2 / 2.

Mixed Choi states get the convex-roof extension: minimize the ensemble
average of the pure measure over all pure-Choi ensembles realizing the
state.  ``mf_convex_roof`` bounds it from above by Riemannian gradient
descent on isometries (Roethlisberger, Lehmann & Loss, PRA 80, 042301,
2009, on the geometry of Edelman, Arias & Smith, SIAM J. Matrix Anal.
Appl. 20, 303, 1998) with the QR retraction (Absil, Mahony & Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008, sec. 4.1.1), started
among others from the Uhlmann ensemble of the dephased Choi state.  Every
diagonal sigma gives the geometric bound sqrt(1 - F(C, sigma)); raised
toward the incoherent state closest in fidelity, it settles the axiom
harness's checks without the descent.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import (
    QuantumOperation,
    is_incoherent_operation,
    mix_operations,
    random_incoherent_cptp,
    random_unitary,
    rng_from,
)
from .exceptions import (
    DimensionMismatchError,
    InvalidChoiError,
    MethodInapplicableError,
    NotFiniteError,
    NotPureChoiError,
    WeightError,
)
from .linalg import (
    cholesky_lo,
    dagger,
    devectorize,
    dimension,
    inv,
    max_abs,
    psd_root,
    require_density,
    require_finite,
    require_unitary,
    require_weights,
    vectorize,
)
from .superop import Superoperation, apply as apply_superop, kraus_outcomes
from .tolerances import ALGEBRA_ATOL

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0
SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


def uhlmann_fidelity(rho, sigma) -> float:
    """F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clamped to [0, 1].

    Evaluated as the squared nuclear norm of sqrt(rho) sqrt(sigma), which
    is the same number but avoids taking square roots of the round-off
    eigenvalues of the sandwiched product.  The roots come from the
    spectra computed while admitting the two states.
    """
    r, r_eig = require_density(rho, what="rho")
    s, s_eig = require_density(sigma, what="sigma")
    if r.shape != s.shape:
        raise DimensionMismatchError(f"shape mismatch {r.shape} vs {s.shape}")
    return float(fidelity_from_roots(psd_root(r_eig), psd_root(s_eig)))


def fidelity_from_roots(root_rho: np.ndarray, root_sigma: np.ndarray):
    """Uhlmann fidelity from the square roots of two admitted states, or one per pair of two broadcast stacks."""
    singular_values = np.linalg.svd(root_rho @ root_sigma, compute_uv=False)
    # float_power squares by pow(), as ``x ** 2`` does on one float: on an array ``** 2`` multiplies,
    # which differs in the last bit about once in a thousand
    return np.clip(np.float_power(singular_values.sum(axis=-1), 2), 0.0, 1.0)


def incoherent_fidelity_ascent(root: np.ndarray, steps: int, target: float = 0.0) -> tuple:
    """Raise F(rho, diag s) over distributions s, from s = diag(rho); return (F, s, W).

    ``root`` is sqrt(rho).  Each round takes the SVD sqrt(rho) sqrt(diag s)
    = U S V^dagger; its unitary W = U V^dagger attains the nuclear norm, so
    F = (tr S)^2 = (sum_k sqrt(s_k) a_k)^2 with a_k = Re(W^dagger sqrt(rho))_kk.
    At fixed W that sum is largest at s_k proportional to (a_k)_+^2, which
    is the next s, so F never falls.  The ascent ends after ``steps`` such
    moves, once sqrt(1 - F) <= ``target``, or once a move gains no more
    than 1e-15 of F.  F, s and W all belong to the last SVD.
    """
    s = (np.abs(root) ** 2).sum(axis=0)
    s /= s.sum()
    f_before = -math.inf
    for step in range(steps + 1):
        u, singular_values, vh = np.linalg.svd(root * np.sqrt(s))
        f = min(float(singular_values.sum()) ** 2, 1.0)
        w = u @ vh
        if step == steps or math.sqrt(1.0 - f) <= target or f - f_before <= 1e-15 * f:
            return f, s, w
        f_before = f
        a = np.maximum((w.conj() * root).sum(axis=0).real, 0.0)
        s = a * a / (a @ a)


@dataclass(frozen=True)
class Ensemble:
    """Pure-Choi operations realizing a mixed Choi state, held as their rows.

    Row n is the unnormalized vector psi~_n over the d^2 Choi basis.  Its
    weight is p_n = |psi~_n|^2 and its member the pure Choi state
    |psi~_n><psi~_n| / p_n, so every member is pure by construction.  The
    rows are admitted once, as a read-only copy; weights, reconstruction
    and members are derived from them when first read.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = require_finite(np.array(self.rows, dtype=complex), WeightError, "ensemble rows")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        dimension(rows.shape[1], 2, "ensemble row")
        if not (require_weights(self.weights) > 0).all():
            raise WeightError("ensemble rows must be nonzero")

    @cached_property
    def weights(self) -> np.ndarray:
        w = (np.abs(self.rows) ** 2).sum(axis=1)
        w.setflags(write=False)
        return w

    def _matrices(self) -> np.ndarray:
        # The Hermitian part, as Choi admission stores it: the complex products of
        # one outer product need not come out exactly Hermitian.
        m = self.rows[:, :, None] * self.rows.conj()[:, None, :] / self.weights[:, None, None]
        return (m + dagger(m)) / 2.0

    @cached_property
    def reconstruction(self) -> np.ndarray:
        """sum_n p_n C_n, summed in member order."""
        c = np.add.reduce(self.weights[:, None, None] * self._matrices(), axis=0)
        c.setflags(write=False)
        return c

    @cached_property
    def members(self) -> tuple:
        """The member operations, built on first read."""
        return tuple(QuantumOperation.from_choi(m) for m in self._matrices())


@dataclass(frozen=True)
class MeasureResult:
    """A coherence-measure value with provenance.

    ``kind`` records how the value was obtained: "exact_pure" and
    "closed_form_qubit" are exact; "convex_roof_upper_bound" may
    overestimate the true measure.  The witness is the optimal incoherent
    basis state (pure cases) or the optimal ensemble found (roof case).
    """

    value: float
    kind: str
    witness_index: tuple | None = None
    ensemble: Ensemble | None = None
    history: tuple = ()


def _argmax_smallest_index(values: np.ndarray) -> int:
    """Index of the maximum, ties (within ALGEBRA_ATOL) broken toward index 0.

    Exact ties are common here (a unitary's Choi diagonal carries each
    value twice), and round-off must not make the witness depend on which
    copy noise favors.
    """
    top = float(np.max(values))
    return int(np.nonzero(values >= top - ALGEBRA_ATOL)[0][0])


def mf_pure(op: QuantumOperation) -> MeasureResult:
    """Measure of an operation with a pure Choi state; exact."""
    choi = op.choi
    if not choi.is_pure():
        raise NotPureChoiError(
            f"Choi state is not pure (largest eigenvalue {choi.largest_eigenvalue:.9f})"
        )
    diag = np.real(np.diag(choi.matrix))
    m = _argmax_smallest_index(diag)
    value = math.sqrt(max(1.0 - float(np.max(diag)), 0.0))
    return MeasureResult(value=value, kind="exact_pure", witness_index=divmod(m, choi.d))


def single_qubit_closed_form(unitaries: np.ndarray) -> tuple:
    """(values, Choi diagonals |vec(U)|^2 / 2) of the closed form for an admitted 2x2 unitary, or a stack (..., 2, 2).

    Diagonal entries 0 and 2 are |U[0,0]|^2/2 = cos^2(gamma/2)/2 and |U[0,1]|^2/2 = sin^2(gamma/2)/2.
    """
    v = vectorize(unitaries)
    # |z|^2 as Python's abs(z) ** 2 gives it, hypot then pow(): np.abs(v) ** 2 differs in the last bit
    diag = np.float_power(np.hypot(v.real, v.imag), 2) / 2
    return np.minimum(np.sqrt(np.maximum(1 - diag[..., 0], 0)), np.sqrt(np.maximum(1 - diag[..., 2], 0))), diag


def mf_single_qubit_unitary(u) -> MeasureResult:
    """Closed-form measure of a single-qubit unitary, by ``single_qubit_closed_form``; agrees with mf_pure to 1e-10."""
    value, diag = single_qubit_closed_form(require_unitary(u, dim=2))
    witness = divmod(_argmax_smallest_index(diag), 2)
    return MeasureResult(value=float(value), kind="closed_form_qubit", witness_index=witness)


def max_coherent_operation(thetas) -> QuantumOperation:
    """The maximally coherent single-qubit operation for four phase angles theta[i, a].

    Single Kraus operator K[a, i] = exp(i theta[i, a]) / sqrt(2); its Choi
    state is the pure uniform-modulus matrix with entries
    exp(i(theta[i,a] - theta[j,b])) / 4 and measure sqrt(3)/2 for every
    choice of angles.
    """
    th = np.asarray(thetas, dtype=float).reshape(-1)
    if th.size != 4:
        raise DimensionMismatchError(f"the maximally coherent operation needs four angles, got {th.size}")
    require_finite(th[None], NotFiniteError, "angles")
    k = devectorize(np.exp(1j * th), 2) / np.sqrt(2.0)
    return QuantumOperation.from_kraus([k])


# ---------------------------------------------------------------------------
# Convex-roof estimation
# ---------------------------------------------------------------------------

# A descent takes at most _STEPS steps, and ends sooner once the best value
# across lanes has gained no more than _STALL_GAIN of itself over the last
# _STALL_STEPS steps.  On the benchmark's coherent d=2 inputs that halves the
# mean step count: half stop by step 41, and one in seven still takes 100.
# A stop on each lane's own gain per step would not do: lanes near a kink
# of max_k |psi_nk|^2 creep on with gains of 1e-7 to 1e-6 of their value
# per step, so such a stop either ends above where 100 steps get or runs
# for up to 300.  Watching only the best value, a creeping lane holds the
# descent open only while it is the best lane, and the cap still bounds
# every call.  On about 1 in 200 inputs a creeping lane would have overtaken
# the stalled best after the stop, by up to 4e-5.
_STEPS = 100
_STALL_STEPS = 15
_STALL_GAIN = 1e-12
_ZERO = 1e-13
# The Uhlmann lane takes this many ascent moves, so one SVD at sigma =
# diag(C).  Ten alternating 20-s pairs of the roof benchmark on a 2-core
# x86 host, 8 moves against 0, split 5 to 5 (medians 158.7 and 155.9
# ops/s): the moves cut about 2.5 descent steps per call and cost as much.
_LANE_STEPS = 0


def _row_terms(psi: np.ndarray) -> np.ndarray:
    """sqrt(p_n (p_n - max_k |psi_nk|^2)) for each row n, p_n = |psi_n|^2.

    That is p_n times the pure measure of the normalized row; the float sum
    p_n is never below its largest term, so the product is never negative.
    """
    mod2 = np.abs(psi) ** 2
    p = mod2.sum(axis=-1)
    return np.sqrt(p * (p - mod2.max(axis=-1)))


def _random_isometries(count: int, m: int, r: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((count, m, r)) + 1j * rng.standard_normal((count, m, r))
    return np.linalg.qr(z)[0]


def _uhlmann_lane(root: np.ndarray, vecs: np.ndarray, m: int) -> np.ndarray:
    """The m x r isometry of the Uhlmann ensemble of the ascent from sqrt(C) = ``root``.

    The ensemble is psi~_k = sqrt(C) W|k>, one member per Choi basis state,
    so V[k, i] = <e_i|W|k> and V = W^T conj(E), padded with zero rows to m.
    """
    w = incoherent_fidelity_ascent(root, _LANE_STEPS)[2]
    v = np.zeros((m, vecs.shape[1]), dtype=complex)
    v[: w.shape[0]] = w.T @ vecs.conj()
    return v


def _retract(x: np.ndarray) -> np.ndarray:
    # qf(x) = x R^-1, R = L^dagger for the Cholesky factor L of x^dagger x: first-order equal to the polar factor.
    # A trial V - t xi, xi tangent at V, has kappa(x) <= sqrt(1 + t^2 |xi|^2), measured at most 2.74.
    return x @ inv(cholesky_lo(x.conj().swapaxes(-1, -2) @ x).conj().swapaxes(-1, -2))


def _value_and_direction(v: np.ndarray, psi: np.ndarray, a_h: np.ndarray) -> tuple:
    """Each lane's value sum_n f_n and its gradient projected onto the tangent space at v.

    f_n = sqrt(p_n (p_n - q_n)) with psi = v a_t, p_n = |psi_n|^2 and
    q_n = |psi_nk*|^2 at the row's largest entry k*; the value is summed as
    ``_row_terms(psi).sum(axis=-1)`` sums it, bit for bit.  Holding k*
    fixed, the Wirtinger derivative of f_n with respect to conj(psi_n) is
    Z = ((2 p_n - q_n) psi_n - p_n psi_nk* e_k*) / (2 f_n), and 0 on rows
    with f_n = 0.  Z pulls back to G = Z a_h with a_h = a_t^dagger, and the
    returned projection xi = G - v herm(v^dagger G) keeps the part tangent
    to the isometries: along a tangent Y the value moves by
    2 Re tr(xi^dagger Y) to first order.
    """
    mod2 = np.abs(psi) ** 2
    p = np.add.reduce(mod2, axis=-1, keepdims=True)
    q = np.maximum.reduce(mod2, axis=-1, keepdims=True)
    top = np.arange(mod2.shape[-1]) == mod2.argmax(axis=-1)[..., None]
    f = np.sqrt(p * (p - q))
    z = psi * ((2.0 * p - q - p * top) / np.where(f > 0, 2.0 * f, np.inf))
    g = (z.reshape(-1, z.shape[-1]) @ a_h).reshape(v.shape)
    vg = v.conj().swapaxes(-1, -2) @ g
    return np.add.reduce(f[..., 0], axis=-1), g - v @ ((vg + vg.conj().swapaxes(-1, -2)) / 2)


def mf_convex_roof(
    op: QuantumOperation,
    restarts: int = 32,
    max_iter: int = _STEPS,
    *,
    seed,
) -> MeasureResult:
    """Upper bound on the convex-roof measure of a (possibly mixed) operation.

    The Choi state C = sum_i lam_i |e_i><e_i| (rank r) is decomposed into
    ensembles |psi~_n> = sum_i V[n,i] sqrt(lam_i) |e_i> through m x r
    isometries V with m = r^2, which sweep every ensemble of up to r^2
    members.  The objective sum_n p_n sqrt(1 - max_k |<k|psi_n>|^2) is
    minimized by Riemannian gradient descent on the isometries from
    ``restarts`` starting points: the eigendecomposition ensemble, random
    isometries and the Uhlmann ensemble.  Pure inputs short-circuit to
    mf_pure.

    Every diagonal sigma bounds the result from above.  With g(psi) =
    1 - max_k |psi_k|^2, the measure on a pure state is sqrt(g), and the
    convex roof of g is C_g(C) = 1 - max over diagonal sigma of F(C, sigma)
    (Streltsov, Kampermann & Bruss, NJP 12, 123004, 2010; Streltsov et al.,
    PRL 115, 020403, 2015).  Jensen's inequality on a g-optimal ensemble
    gives roof(sqrt g) <= sqrt(C_g), so the measure is at most
    sqrt(1 - F(C, sigma)) for every diagonal sigma.  The Uhlmann ensemble
    behind such an F, psi~_k = sqrt(C) W|k> with W from
    ``incoherent_fidelity_ascent``, attains no more than that bound itself.
    So when restarts >= 2 and m >= d^2, the last lane starts from it, at
    sigma = diag(C) (one SVD, no ascent moves), padded with zero rows to m,
    in place of the last random isometry.  All restarts - 1 random
    isometries are still drawn, so every other lane stays as it would be
    without the Uhlmann lane, and the result is never above that lane's
    sqrt(1 - F).

    The starting points run in lockstep as lanes of one (restarts, m, r)
    stack.  Each step moves every lane against its direction, the gradient
    projected onto the lane's tangent space, by the lane's step size and
    retracts to an isometry by the QR factor (``_retract``).  One pass of
    ``_value_and_direction`` over the trial's rows psi = V a_t gives its
    value and its direction together.  A lane carries V, its value and its
    direction.  It keeps the step only when it lowers the lane's value, and
    then copies all three from the trial; its step size then grows by 1.3,
    and otherwise halves.  A lane that rejects keeps its V, and so its
    direction.  The descent takes at most 100 steps, the default
    ``max_iter``, or ``max_iter`` if that is fewer.  It ends sooner once
    the best value across lanes stalls, having gained no more than 1e-12 of
    itself over the last 15 steps, or once a lane reaches zero, which no
    ensemble can beat.  The rows of the best lane are formed once, after
    the loop, and the returned ensemble holds them; its members are built
    only if something reads them.

    The returned history is the running minimum of the lanes' values in
    lane order, so it has ``restarts`` entries and is nonincreasing; the
    returned ensemble reconstructs C to 1e-8 and attains the returned value.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")
    choi = op.choi
    if choi.is_pure():
        return mf_pure(op)
    lam, vecs = choi.support()
    r = int(lam.size)
    m = r * r
    a_t = (vecs * np.sqrt(lam)).T  # rows: sqrt(lam_i) e_i
    a_h = a_t.conj().swapaxes(-1, -2)
    rng = rng_from(seed)

    v = np.empty((restarts, m, r), dtype=complex)
    v[0] = np.eye(m, r)  # warm start from the eigendecomposition ensemble itself
    v[1:] = _random_isometries(restarts - 1, m, r, rng)
    if restarts >= 2 and m >= choi.d**2:
        v[-1] = _uhlmann_lane(choi.root, vecs, m)  # in place of the last random isometry
    values, xi = _value_and_direction(v, v @ a_t, a_h)
    step = np.full((restarts, 1, 1), 0.5)
    best = [float(np.minimum.reduce(values))]  # best[i]: the least lane value after step i
    with np.errstate(invalid="ignore"):  # a NaN trial, from a Gram matrix not positive definite, is rejected
        for i in range(1, min(max_iter, _STEPS) + 1):
            if best[-1] <= _ZERO:
                break
            trial = _retract(v - step * xi)
            rows = (trial.reshape(-1, r) @ a_t).reshape(restarts, m, -1)  # one GEMM over every lane's rows
            trial_values, trial_xi = _value_and_direction(trial, rows, a_h)
            accept = trial_values < values
            keep = accept[:, None, None]
            step *= np.where(keep, 1.3, 0.5)
            np.copyto(v, trial, where=keep)
            np.copyto(xi, trial_xi, where=keep)
            np.copyto(values, trial_values, where=accept)
            best.append(float(np.minimum.reduce(values)))
            if i >= _STALL_STEPS and best[i - _STALL_STEPS] - best[i] <= _STALL_GAIN * best[i]:
                break

    history = tuple(float(h) for h in np.minimum.accumulate(values))
    psi = v[np.argmin(values)] @ a_t
    ensemble = Ensemble(psi[(np.abs(psi) ** 2).sum(axis=1) > 1e-12])
    residual = max_abs(ensemble.reconstruction - choi.matrix)
    if not residual <= 1e-8:
        raise InvalidChoiError(f"optimizer ensemble fails to reconstruct the input ({residual:.2e})")
    return MeasureResult(
        value=float(_row_terms(ensemble.rows).sum()),
        kind="convex_roof_upper_bound",
        ensemble=ensemble,
        history=history,
    )


def measure_coherence(
    op: QuantumOperation,
    method: str = "auto",
    restarts: int = 32,
    max_iter: int = _STEPS,
    seed=None,
) -> MeasureResult:
    """Dispatch to the closed form, the pure shortcut, or the convex roof.

    The roof is randomized, so it runs only with an explicit seed.
    """
    if method == "auto":
        if op.kind == "unitary" and op.d == 2:
            return mf_single_qubit_unitary(op.unitary)
        if op.choi.is_pure():
            return mf_pure(op)
    elif method == "pure":
        try:
            return mf_pure(op)
        except NotPureChoiError as exc:
            raise MethodInapplicableError(str(exc)) from exc
    elif method == "qubit-closed-form":
        if op.kind != "unitary" or op.d != 2:
            raise MethodInapplicableError("closed form needs a 2x2 unitary operation")
        return mf_single_qubit_unitary(op.unitary)
    elif method != "convex-roof":
        raise MethodInapplicableError(f"unknown method {method!r}")
    if seed is None:
        raise MethodInapplicableError("a seed is required when the convex-roof estimator runs")
    return mf_convex_roof(op, restarts=restarts, max_iter=max_iter, seed=seed)


# ---------------------------------------------------------------------------
# Measure-axiom harness
# ---------------------------------------------------------------------------

AXIOM_SLACK = 1e-6
# The gate's ascent settles a check within three moves on the harness's d=2
# inputs; a check it has not settled by this many is inconclusive.
_GATE_STEPS = 50


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    description: str
    status: str  # "pass" | "fail" | "inconclusive"
    lhs: float
    rhs: float


@dataclass
class AxiomReport:
    checks: list = field(default_factory=list)

    def count(self, status: str) -> int:
        return sum(1 for c in self.checks if c.status == status)

    @property
    def ok(self) -> bool:
        return self.count("fail") == 0


def _measure_value(op: QuantumOperation, rhs: float) -> tuple:
    """Measure an operation for the check value <= rhs: exactly when pure, else by an upper bound.

    A mixed input gets the geometric bound sqrt(1 - F(C, sigma)) of ``mf_convex_roof``, raised by
    the ascent until it settles the check; a bound left above rhs + AXIOM_SLACK is inconclusive.
    Returns (value, exact_flag); upper-bound values can only certify one-sided comparisons.
    """
    if op.choi.is_pure():
        return mf_pure(op).value, True
    return math.sqrt(1.0 - incoherent_fidelity_ascent(op.choi.root, _GATE_STEPS, rhs + AXIOM_SLACK)[0]), False


def _perm_phase_choi_kraus(dd: int, rng: np.random.Generator) -> np.ndarray:
    """Random incoherent unitary on the Choi space: permutation times phases."""
    perm = rng.permutation(dd)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=dd))
    k = np.zeros((dd, dd), dtype=complex)
    k[perm, np.arange(dd)] = phases
    return k


def _two_branch_choi_kraus(dd: int, rng: np.random.Generator) -> list:
    """Kraus pair sqrt(q) K_1, sqrt(1 - q) K_2 of permutation-phase unitaries, q drawn first."""
    q = float(rng.uniform(0.2, 0.8))
    return [np.sqrt(q) * _perm_phase_choi_kraus(dd, rng), np.sqrt(1 - q) * _perm_phase_choi_kraus(dd, rng)]


def _partition_projectors(dd: int, rng: np.random.Generator) -> list:
    """Two complementary diagonal projectors covering the Choi basis."""
    mask = rng.integers(0, 2, size=dd).astype(bool)
    if mask.all() or not mask.any():
        flip = int(rng.integers(dd))
        mask[flip] = not mask[flip]
    return [np.diag(mask.astype(complex)), np.diag((~mask).astype(complex))]


def _check(report, axiom, description, lhs, rhs, exact_lhs=True):
    """Record lhs <= rhs + slack; soft-fail when lhs is only an upper bound."""
    if lhs <= rhs + AXIOM_SLACK:
        status = "pass"
    elif not exact_lhs:
        status = "inconclusive"
    else:
        status = "fail"
    report.checks.append(AxiomCheck(axiom, description, status, float(lhs), float(rhs)))


def verify_axioms(samples: int = 20, *, seed) -> AxiomReport:
    """Statistically exercise the four measure axioms.

    Nonnegativity / faithfulness run on constructed incoherent channels and
    Haar unitaries; monotonicity and strong monotonicity on incoherent
    Choi-space Kraus superoperations (permutation-phase unitaries, which
    preserve purity, plus projective partitions and two-branch mixtures);
    convexity on random mixtures.  Checks whose left side is only a
    convex-roof upper bound are marked inconclusive instead of failed when
    the comparison comes out the wrong way.  With no samples it would pass
    without checking anything, so ``samples`` must be at least 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = rng_from(seed)
    report = AxiomReport()
    d = 2
    dd = d * d

    # (1) nonnegativity and zero-iff-incoherent
    for n in range(samples):
        inc = random_incoherent_cptp(d, rng)
        value, exact = _measure_value(inc, 0.0)
        _check(report, "nonnegativity", f"incoherent channel #{n} scores zero", value, 0.0, exact)
    for n in range(samples):
        u = random_unitary(d, rng)
        value = mf_pure(u).value
        coherent = not is_incoherent_operation(u.choi).ok
        if coherent:
            # measure must not vanish on a coherent operation: passes only when value >= AXIOM_SLACK
            _check(report, "nonnegativity", f"coherent unitary #{n} scores positive", 2 * AXIOM_SLACK, value)

    # (2) monotonicity under incoherent superoperations
    for n in range(samples):
        phi = random_unitary(d, rng)
        base = mf_pure(phi).value
        iso = Superoperation.from_kraus_on_choi([_perm_phase_choi_kraus(dd, rng)])
        out = apply_superop(iso, phi)
        _check(report, "monotonicity", f"permutation-phase ISO #{n}", mf_pure(out).value, base)
    for n in range(samples // 2):
        phi = random_unitary(d, rng)
        base = mf_pure(phi).value
        out = apply_superop(Superoperation.from_kraus_on_choi(_two_branch_choi_kraus(dd, rng)), phi)
        value, exact = _measure_value(out, base)
        _check(report, "monotonicity", f"two-branch ISO mixture #{n}", value, base, exact)

    # (3) strong monotonicity over selective outcomes
    for n in range(samples):
        phi = random_unitary(d, rng)
        base = mf_pure(phi).value
        if n % 2 == 0:
            kraus = _partition_projectors(dd, rng)
            label = f"projective partition #{n}"
        else:
            kraus = _two_branch_choi_kraus(dd, rng)
            label = f"branching perm-phase ISO #{n}"
        outcomes = kraus_outcomes(Superoperation.from_kraus_on_choi(kraus), phi)
        # both Kraus sets are trace preserving, so the outcome weights sum to 1
        avg = sum(p * mf_pure(branch).value for p, branch in outcomes)
        _check(report, "strong_monotonicity", label, avg, base)

    # (4) convexity of the roof extension
    for n in range(samples):
        u1, u2 = random_unitary(d, rng), random_unitary(d, rng)
        p = float(rng.uniform(0.0, 1.0))
        mixed = mix_operations([p, 1 - p], [u1, u2])
        rhs = p * mf_pure(u1).value + (1 - p) * mf_pure(u2).value
        value, exact = _measure_value(mixed, rhs)
        _check(report, "convexity", f"unitary mixture #{n} (p={p:.3f})", value, rhs, exact)
    for n in range(samples // 2):
        i1, i2 = random_incoherent_cptp(d, rng), random_incoherent_cptp(d, rng)
        p = float(rng.uniform(0.0, 1.0))
        mixed = mix_operations([p, 1 - p], [i1, i2])
        value, exact = _measure_value(mixed, 0.0)
        _check(report, "convexity", f"incoherent mixture #{n}", value, 0.0, exact)
    for p in (0.0, 1.0):
        u1, u2 = random_unitary(d, rng), random_unitary(d, rng)
        mixed = mix_operations([p, 1 - p], [u1, u2])
        rhs = p * mf_pure(u1).value + (1 - p) * mf_pure(u2).value
        value, exact = _measure_value(mixed, rhs)
        _check(report, "convexity", f"degenerate mixture p={p}", value, rhs, exact)
    return report
