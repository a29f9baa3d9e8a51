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

evaluated here directly from |U[0,0]| and |U[0,1]|.

Mixed Choi states get the convex-roof extension: minimize the ensemble
average of the pure measure over all pure-Choi ensembles realizing the
state.  The estimator below parameterizes ensembles through isometries V
acting on the eigendecomposition and runs Riemannian gradient descent on
them (Roethlisberger, Lehmann & Loss, PRA 80, 042301, 2009, on the
geometry of Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 20, 303,
1998) from several seeded starting points at once, as lanes of one stack.
Each step takes the Euclidean gradient G of the ensemble value, projects
it onto the tangent space of the isometries, G - V herm(V^dagger G), and
retracts the moved V to the nearest isometry by its polar factor.  A lane
keeps a step only if it lowers the value, and then lengthens its next
step by 1.3; a rejected step halves it.  The lanes carry their ensemble
rows psi = V A^T, taken over from the scored trial when a step is kept,
and a step after one that no lane kept reuses the last direction, since
neither V nor psi has changed.  The descent takes at most 100 steps.  It
stops sooner once the best value across lanes stalls, gaining no more than
1e-12 of itself over 15 steps, or once a lane reaches zero, the least value
possible.  The result is an upper bound on the roof.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ChoiState,
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
    NotPureChoiError,
)
from .linalg import max_abs, psd_root, require_density, require_unitary, require_weights
from .superop import Superoperation, apply as apply_superop, kraus_outcomes
from .tolerances import admission_atol

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
    return fidelity_from_roots(psd_root(r_eig), psd_root(s_eig))


def fidelity_from_roots(root_rho: np.ndarray, root_sigma: np.ndarray) -> float:
    """Uhlmann fidelity from the square roots of two admitted states."""
    singular_values = np.linalg.svd(root_rho @ root_sigma, compute_uv=False)
    return min(max(float(singular_values.sum() ** 2), 0.0), 1.0)


def operation_fidelity(a: QuantumOperation, b: QuantumOperation) -> float:
    """Fidelity of two operations = Uhlmann fidelity of their Choi states, from their held roots."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"operation dims differ: {a.dim} vs {b.dim}")
    return fidelity_from_roots(a.choi.root, b.choi.root)


@dataclass(frozen=True)
class Ensemble:
    """Weighted pure-Choi operations realizing a mixed Choi state."""

    weights: np.ndarray
    members: tuple

    def __post_init__(self):
        p = require_weights(self.weights, ValueError)
        if len(self.members) != p.size:
            raise DimensionMismatchError("one weight per ensemble member required")
        if len({member.dim for member in self.members}) > 1:
            raise DimensionMismatchError("ensemble members must share one dimension")
        for member in self.members:
            if not member.choi.is_pure():
                raise NotPureChoiError("ensemble members must carry pure Choi states")

    def reconstruction(self) -> np.ndarray:
        return sum(w * member.choi.matrix for w, member in zip(self.weights, self.members))


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


def _argmax_smallest_index(values: np.ndarray, tie_tol: float = 1e-12) -> int:
    """Index of the maximum, ties (within tie_tol) broken toward index 0.

    Exact ties are common here (a unitary's Choi diagonal carries each
    value twice), and round-off must not make the witness depend on which
    copy noise favors.
    """
    top = float(np.max(values))
    return int(np.nonzero(values >= top - tie_tol)[0][0])


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


def mf_single_qubit_unitary(u) -> MeasureResult:
    """Closed-form measure of a single-qubit unitary.

    Works off |U[0,0]| = |cos(gamma/2)| and |U[0,1]| = |sin(gamma/2)|
    directly; agrees with mf_pure on the Choi state to 1e-10.
    """
    m = require_unitary(u, dim=2)
    am2 = abs(m[0, 0]) ** 2
    bm2 = abs(m[0, 1]) ** 2
    value = min(math.sqrt(max(1.0 - am2 / 2.0, 0.0)), math.sqrt(max(1.0 - bm2 / 2.0, 0.0)))
    diag = np.array([abs(m[0, 0]) ** 2, abs(m[1, 0]) ** 2, abs(m[0, 1]) ** 2, abs(m[1, 1]) ** 2]) / 2
    witness = divmod(_argmax_smallest_index(diag), 2)
    return MeasureResult(value=value, kind="closed_form_qubit", witness_index=witness)


def max_coherent_operation(thetas) -> QuantumOperation:
    """The maximally coherent single-qubit operation for four phase angles theta[i, a].

    Single Kraus operator K[a, i] = exp(i theta[i, a]) / sqrt(2); its Choi
    state is the pure uniform-modulus matrix with entries
    exp(i(theta[i,a] - theta[j,b])) / 4 and measure sqrt(3)/2 for every
    choice of angles.
    """
    th = np.asarray(thetas, dtype=float)
    if th.size != 4:
        raise DimensionMismatchError(f"the maximally coherent operation needs four angles, got {th.size}")
    k = np.exp(1j * th.reshape(2, 2).T) / np.sqrt(2.0)
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


def _polar(v: np.ndarray) -> np.ndarray:
    # The isometry nearest to each m x r matrix, v (v^dagger v)^(-1/2).
    s = v.conj().swapaxes(-1, -2) @ v
    w, u = np.linalg.eigh((s + s.conj().swapaxes(-1, -2)) / 2)
    inv_root = (u / np.sqrt(np.maximum(w, 1e-300))[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return v @ inv_root


def _tangent_gradient(v: np.ndarray, psi: np.ndarray, a_h: np.ndarray) -> np.ndarray:
    """Gradient of sum_n f_n at the isometries v, projected onto their tangent space.

    f_n = sqrt(p_n (p_n - q_n)) with psi = v a_t, p_n = |psi_n|^2 and
    q_n = |psi_nk*|^2 at the row's largest entry k*.  Holding k* fixed, the
    Wirtinger derivative of f_n with respect to conj(psi_n) is
    Z = ((2 p_n - q_n) psi_n - p_n psi_nk* e_k*) / (2 f_n), and 0 on rows
    with f_n = 0.  Z pulls back to G = Z a_h with a_h = a_t^dagger, and the
    returned projection xi = G - v herm(v^dagger G) keeps the part tangent
    to the isometries: along a tangent Y the value moves by
    2 Re tr(xi^dagger Y) to first order.
    """
    mod2 = np.abs(psi) ** 2
    p = mod2.sum(axis=-1, keepdims=True)
    q = mod2.max(axis=-1, keepdims=True)
    top = np.arange(mod2.shape[-1]) == mod2.argmax(axis=-1)[..., None]
    f = np.sqrt(p * (p - q))
    z = psi * ((2.0 * p - q - p * top) / np.where(f > 0, 2.0 * f, np.inf))
    g = z @ a_h
    vg = v.conj().swapaxes(-1, -2) @ g
    return g - v @ ((vg + vg.conj().swapaxes(-1, -2)) / 2)


def mf_convex_roof(
    op: QuantumOperation,
    restarts: int = 32,
    max_iter: int = 2000,
    seed=0,
) -> MeasureResult:
    """Upper bound on the convex-roof measure of a (possibly mixed) operation.

    The Choi state C = sum_i lam_i |e_i><e_i| (rank r) is decomposed into
    ensembles |psi~_n> = sum_i V[n,i] sqrt(lam_i) |e_i> through m x r
    isometries V with m = r^2, which sweep every ensemble of up to r^2
    members.  The objective sum_n p_n sqrt(1 - max_k |<k|psi_n>|^2) is
    minimized by Riemannian gradient descent on the isometries from
    ``restarts`` starting points: the eigendecomposition ensemble and
    random isometries.  Pure inputs short-circuit to mf_pure.

    The starting points run in lockstep as lanes of one (restarts, m, r)
    stack.  Each step takes every lane's gradient, projects it onto the
    lane's tangent space (``_tangent_gradient``), moves against it by the
    lane's step size and retracts to the nearest isometry by the polar
    factor.  A lane keeps the step only when it lowers the lane's value;
    its step size then grows by 1.3, and otherwise halves.  The lanes'
    rows psi = V a_t are carried: a kept step copies them from the scored
    trial, and a step after one that no lane kept reuses the direction,
    because V and psi, and so the direction, are bit for bit the same.
    The descent takes at most 100 steps, or ``max_iter`` if that is fewer.
    It ends sooner once the best value across lanes stalls, having gained
    no more than 1e-12 of itself over the last 15 steps, or once a lane
    reaches zero, which no ensemble can beat.

    The returned history is the running minimum of the lanes' values in
    lane order, so it has ``restarts`` entries and is nonincreasing; the
    returned ensemble reconstructs C to 1e-8 and attains the returned value.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
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
    psi = v @ a_t
    values = _row_terms(psi).sum(axis=1)
    step = np.full(restarts, 0.5)
    best = [values.min()]  # best[i]: the least lane value after step i
    moved = True
    for i in range(1, min(max_iter, _STEPS) + 1):
        if moved:  # v, psi and values change only when a lane accepts
            if best[-1] <= _ZERO:
                break
            xi = _tangent_gradient(v, psi, a_h)
        trial = _polar(v - step[:, None, None] * xi)
        trial_psi = trial @ a_t
        trial_values = _row_terms(trial_psi).sum(axis=1)
        accept = trial_values < values
        step *= np.where(accept, 1.3, 0.5)
        if moved := accept.any():
            np.copyto(v, trial, where=accept[:, None, None])
            np.copyto(psi, trial_psi, where=accept[:, None, None])
            np.copyto(values, trial_values, where=accept)
        best.append(values.min())
        if i >= _STALL_STEPS and best[i - _STALL_STEPS] - best[i] <= _STALL_GAIN * best[i]:
            break

    history = tuple(float(h) for h in np.minimum.accumulate(values))
    psi = psi[np.argmin(values)]
    p = (np.abs(psi) ** 2).sum(axis=1)
    kept = p > 1e-12
    members = tuple(
        QuantumOperation.from_choi(ChoiState(np.outer(row, row.conj()) / pn, choi.d))
        for row, pn in zip(psi[kept], p[kept])
    )
    ensemble = Ensemble(weights=p[kept], members=members)
    residual = max_abs(ensemble.reconstruction() - choi.matrix)
    if not residual <= 1e-8:
        raise InvalidChoiError(f"optimizer ensemble fails to reconstruct the input ({residual:.2e})")
    return MeasureResult(
        value=float(_row_terms(psi[kept]).sum()),
        kind="convex_roof_upper_bound",
        ensemble=ensemble,
        history=history,
    )


def measure_coherence(
    op: QuantumOperation,
    method: str = "auto",
    restarts: int = 32,
    max_iter: int = 2000,
    seed=0,
) -> MeasureResult:
    """Dispatch to the closed form, the pure shortcut, or the convex roof.

    The roof is randomized, so it runs only with an explicit seed.
    """
    if method == "auto":
        if op.kind == "unitary" and op.dim == 2:
            return mf_single_qubit_unitary(op.unitary)
        if op.choi.is_pure():
            return mf_pure(op)
    elif method == "pure":
        try:
            return mf_pure(op)
        except NotPureChoiError as exc:
            raise MethodInapplicableError(str(exc)) from exc
    elif method == "qubit-closed-form":
        if op.kind != "unitary" or op.dim != 2:
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


def _measure_value(op: QuantumOperation, rng: np.random.Generator) -> tuple:
    """Measure an operation, exactly when pure, else by the roof estimator.

    Returns (value, exact_flag); upper-bound values can only certify
    one-sided comparisons.
    """
    if op.choi.is_pure():
        return mf_pure(op).value, True
    result = mf_convex_roof(op, restarts=6, max_iter=600, seed=int(rng.integers(2**32)))
    return result.value, False


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


def verify_axioms(samples: int = 20, seed=0) -> AxiomReport:
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
        value, exact = _measure_value(inc, rng)
        _check(report, "nonnegativity", f"incoherent channel #{n} scores zero", value, 0.0, exact)
    for n in range(samples):
        u = random_unitary(d, rng)
        value = mf_pure(u).value
        coherent = not is_incoherent_operation(u.choi).ok
        if coherent:
            # measure must not vanish on a coherent operation
            _check(report, "nonnegativity", f"coherent unitary #{n} scores positive", AXIOM_SLACK, value)

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
        value, exact = _measure_value(out, rng)
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
        total_p = sum(p for p, _ in outcomes)
        # trace-decreasing branches would need reweighting; flag via label
        if total_p < 1.0 - admission_atol():
            label += f" (weights renormalized from {total_p:.6f})"
        avg = sum(p * mf_pure(branch).value for p, branch in outcomes) / max(total_p, 1e-12)
        _check(report, "strong_monotonicity", label, avg, base)

    # (4) convexity of the roof extension
    for n in range(samples):
        u1, u2 = random_unitary(d, rng), random_unitary(d, rng)
        p = float(rng.uniform(0.0, 1.0))
        mixed = mix_operations([p, 1 - p], [u1, u2])
        rhs = p * mf_pure(u1).value + (1 - p) * mf_pure(u2).value
        value, exact = _measure_value(mixed, rng)
        _check(report, "convexity", f"unitary mixture #{n} (p={p:.3f})", value, rhs, exact)
    for n in range(samples // 2):
        i1, i2 = random_incoherent_cptp(d, rng), random_incoherent_cptp(d, rng)
        p = float(rng.uniform(0.0, 1.0))
        mixed = mix_operations([p, 1 - p], [i1, i2])
        value, exact = _measure_value(mixed, rng)
        _check(report, "convexity", f"incoherent mixture #{n}", value, 0.0, exact)
    for p in (0.0, 1.0):
        u1, u2 = random_unitary(d, rng), random_unitary(d, rng)
        mixed = mix_operations([p, 1 - p], [u1, u2])
        rhs = p * mf_pure(u1).value + (1 - p) * mf_pure(u2).value
        value, exact = _measure_value(mixed, rng)
        _check(report, "convexity", f"degenerate mixture p={p}", value, rhs, exact)
    return report
