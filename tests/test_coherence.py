"""Fidelity, the measure in its three forms, and the axiom harness."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qopcoh import coherence
from qopcoh.channel import (
    PAULI_X,
    QuantumOperation,
    dephasing_operation,
    haar_unitary,
    hadamard_operation,
    identity_operation,
    is_incoherent_operation,
    mix_operations,
    pauli_x_operation,
    pauli_z_operation,
    random_cptp,
    random_density_matrix,
    random_incoherent_cptp,
    random_unitary,
    rng_from,
)
from qopcoh.coherence import (
    AXIOM_SLACK,
    SQRT2_OVER_2,
    SQRT3_OVER_2,
    Ensemble,
    MeasureResult,
    fidelity_from_roots,
    incoherent_fidelity_ascent,
    max_coherent_operation,
    measure_coherence,
    mf_convex_roof,
    mf_pure,
    mf_single_qubit_unitary,
    uhlmann_fidelity,
    verify_axioms,
)
from qopcoh.coherence import (
    _measure_value,
    _partition_projectors,
    _random_isometries,
    _retract,
    _row_terms,
    _two_branch_choi_kraus,
    _uhlmann_lane,
    _value_and_direction,
)
from qopcoh.exceptions import (
    DimensionMismatchError,
    MethodInapplicableError,
    NotDensityMatrixError,
    NotFiniteError,
    NotPureChoiError,
    NotUnitaryError,
    WeightError,
)
from qopcoh.linalg import dagger, max_abs
from qopcoh.suites import suite_axioms
from qopcoh.superop import Superoperation, kraus_outcomes


class TestUhlmannFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            rho = random_density_matrix(3, rng)
            assert abs(uhlmann_fidelity(rho, rho) - 1.0) <= 1e-12

    def test_pure_state_overlap(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            f = uhlmann_fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
            assert abs(f - abs(np.vdot(a, b)) ** 2) <= 1e-12

    def test_commuting_diagonal_example(self):
        # classical fidelity (sqrt(0.125) + sqrt(0.375))^2 by hand
        f = uhlmann_fidelity(np.diag([0.5, 0.5]), np.diag([0.25, 0.75]))
        assert abs(f - 0.933012701892) <= 1e-9

    def test_symmetry_and_unitary_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            rho = random_density_matrix(3, rng)
            sigma = random_density_matrix(3, rng)
            assert abs(uhlmann_fidelity(rho, sigma) - uhlmann_fidelity(sigma, rho)) <= 1e-10
            u = haar_unitary(3, rng)
            rotated = uhlmann_fidelity(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
            assert abs(rotated - uhlmann_fidelity(rho, sigma)) <= 1e-10

    def test_distinct_states_score_below_one(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            rho = random_density_matrix(3, rng)
            sigma = random_density_matrix(3, rng)
            assert uhlmann_fidelity(rho, sigma) < 1.0 - 1e-6

    def test_rejects_non_density_input(self):
        rho = np.eye(2) / 2
        with pytest.raises(NotDensityMatrixError):
            uhlmann_fidelity(rho, np.eye(2))  # trace 2
        with pytest.raises(NotDensityMatrixError):
            uhlmann_fidelity(np.diag([1.5, -0.5]), rho)  # negative eigenvalue
        for bad in (np.nan, np.inf):
            with pytest.raises(NotDensityMatrixError):
                uhlmann_fidelity(rho, np.diag([bad, 0.5]))  # non-finite


class TestOperationFidelity:
    """The fidelity of two operations is the Uhlmann fidelity of their Choi states."""

    def test_self_fidelity(self):
        op = random_unitary(2, 43)
        assert abs(uhlmann_fidelity(op.choi.matrix, op.choi.matrix) - 1.0) <= 1e-12

    def test_identity_vs_pauli_x_is_zero(self):
        f = uhlmann_fidelity(identity_operation(2).choi.matrix, pauli_x_operation().choi.matrix)
        assert f <= 1e-12

    def test_identity_vs_dephasing_is_half(self):
        f = uhlmann_fidelity(identity_operation(2).choi.matrix, dephasing_operation(2).choi.matrix)
        assert abs(f - 0.5) <= 1e-10

    def test_equals_the_fidelity_of_the_readmitted_choi_matrices(self):
        # the roots held since admission give the same number, bit for bit
        for seed in range(150):
            d = 2 + seed % 2
            a = random_cptp(d, 1 + seed % 3, seed) if seed % 4 else random_unitary(d, seed)
            b = random_cptp(d, 2, 1000 + seed)
            assert fidelity_from_roots(a.choi.root, b.choi.root) == uhlmann_fidelity(a.choi.matrix, b.choi.matrix)


class TestMfPure:
    def test_identity(self):
        res = mf_pure(identity_operation(2))
        assert abs(res.value - SQRT2_OVER_2) <= 1e-12
        assert res.witness_index == (0, 0)  # tie broken toward smallest index

    def test_hadamard(self):
        assert abs(mf_pure(hadamard_operation()).value - SQRT3_OVER_2) <= 1e-12

    def test_max_coherent_any_angles(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            op = max_coherent_operation(rng.uniform(0, 2 * math.pi, size=4))
            assert abs(mf_pure(op).value - SQRT3_OVER_2) <= 1e-12

    def test_rejects_mixed_choi(self):
        with pytest.raises(NotPureChoiError):
            mf_pure(dephasing_operation(2))

    def test_witness_stable_under_global_phase(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            u = haar_unitary(2, rng)
            phased = np.exp(1j * rng.uniform(0, 2 * math.pi)) * u
            a = mf_pure(QuantumOperation.from_unitary(u))
            b = mf_pure(QuantumOperation.from_unitary(phased))
            assert a.witness_index == b.witness_index
            assert abs(a.value - b.value) <= 1e-12


class TestClosedFormQubit:
    def test_identity_and_x_attain_lower_endpoint(self):
        assert abs(mf_single_qubit_unitary(np.eye(2)).value - SQRT2_OVER_2) <= 1e-12
        assert abs(mf_single_qubit_unitary(PAULI_X).value - SQRT2_OVER_2) <= 1e-12

    def test_gamma_pi_over_three(self):
        # Ry(pi/3): min{sqrt(1 - 3/8), sqrt(1 - 1/8)} = sqrt(5/8)
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        u = np.array([[c, -s], [s, c]], dtype=complex)
        assert abs(mf_single_qubit_unitary(u).value - math.sqrt(5 / 8)) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            mf_single_qubit_unitary(np.array([[1, 1], [0, 1]], dtype=complex))
        with pytest.raises(NotUnitaryError):
            mf_single_qubit_unitary(np.eye(3))
        for bad in (np.inf, np.nan):
            with pytest.raises(NotUnitaryError):
                mf_single_qubit_unitary(np.array([[bad, 0], [0, 1]], dtype=complex))

    def test_matches_pure_measure_on_haar_samples(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            u = haar_unitary(2, rng)
            closed = mf_single_qubit_unitary(u).value
            numeric = mf_pure(QuantumOperation.from_unitary(u)).value
            assert abs(closed - numeric) <= 1e-10

    def test_range(self):
        rng = np.random.default_rng(48)
        for _ in range(300):
            v = mf_single_qubit_unitary(haar_unitary(2, rng)).value
            assert SQRT2_OVER_2 - 1e-9 <= v <= SQRT3_OVER_2 + 1e-9


class TestMaxCoherentOperation:
    def test_zero_angles_give_uniform_choi(self):
        op = max_coherent_operation(np.zeros(4))
        assert max_abs(op.choi.matrix - np.full((4, 4), 0.25)) <= 1e-12
        assert op.choi.is_pure()

    def test_needs_four_angles(self):
        # three angles used to reach numpy's reshape error
        for thetas in ([1, 2, 3], np.zeros(5), []):
            with pytest.raises(DimensionMismatchError, match="needs four angles"):
                max_coherent_operation(thetas)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_angles_without_a_warning(self, bad):
        # an infinite angle once warned in exp(i theta), then failed as a Kraus set
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotFiniteError, match="angles"):
                max_coherent_operation([bad, 0.0, 0.0, 0.0])


class TestConvexRoof:
    def test_pure_input_delegates_to_exact(self):
        res = mf_convex_roof(hadamard_operation(), seed=1)
        assert res.kind == "exact_pure"
        assert abs(res.value - SQRT3_OVER_2) <= 1e-12

    def test_dephasing_channel_scores_zero(self):
        res = mf_convex_roof(dephasing_operation(2), restarts=4, max_iter=400, seed=2)
        assert res.value <= 1e-6
        for member in res.ensemble.members:
            assert is_incoherent_operation(member.choi).ok

    def test_half_identity_half_z_scores_zero(self):
        mixed = mix_operations([0.5, 0.5], [identity_operation(2), pauli_z_operation()])
        res = mf_convex_roof(mixed, restarts=4, max_iter=400, seed=3)
        assert res.value <= 1e-6

    def test_optimizer_beats_eigendecomposition_ensemble(self):
        # 0.6 Id + 0.4 Z has eigenvector ensemble value sqrt(1/2) ~ 0.707,
        # but rotating toward |00>, |11> reaches ~0.1005
        mixed = mix_operations([0.6, 0.4], [identity_operation(2), pauli_z_operation()])
        res = mf_convex_roof(mixed, restarts=8, max_iter=1500, seed=4)
        assert res.value <= 0.102
        assert res.value >= 0.0

    def test_history_nonincreasing_and_ensemble_reconstructs(self):
        mixed = mix_operations([0.7, 0.3], [hadamard_operation(), identity_operation(2)])
        res = mf_convex_roof(mixed, restarts=6, max_iter=600, seed=5)
        assert all(a >= b for a, b in zip(res.history, res.history[1:]))
        assert max_abs(res.ensemble.reconstruction - mixed.choi.matrix) <= 1e-8
        assert abs(float(np.sum(res.ensemble.weights)) - 1.0) <= 1e-9

    def test_upper_bound_against_known_decomposition(self):
        mixed = mix_operations([0.7, 0.3], [hadamard_operation(), identity_operation(2)])
        bound = 0.7 * SQRT3_OVER_2 + 0.3 * SQRT2_OVER_2
        res = mf_convex_roof(mixed, restarts=6, max_iter=600, seed=6)
        assert res.value <= bound + 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_never_below_the_exact_roof_of_the_symmetric_family(self, d):
        # C_p = p |+><+| + (1 - p) I/d^2 and f are invariant under every permutation of the d^2 basis, so the
        # roof is the convex hull in t = |<+|psi>|^2 of |sin(arccos(1/d) - arccos(sqrt t))| (Vollbrecht & Werner)
        n = d * d
        for p in np.arange(1, 10) / 10:
            exact = p * (1 - 1 / n)
            if p > (n - 2) / (n - 1):
                exact = abs(math.sin(math.acos(1 / d) - math.acos(math.sqrt(p + (1 - p) / n))))
            choi = p * np.ones((n, n)) / n + (1 - p) * np.eye(n) / n
            assert mf_convex_roof(QuantumOperation.from_choi(choi), restarts=6, seed=3).value >= exact - 1e-12

    def test_restart_count_validation(self):
        # a nonpositive count used to run one restart without saying so
        mixed = mix_operations([0.5, 0.5], [identity_operation(2), pauli_z_operation()])
        for restarts in (0, -3):
            with pytest.raises(ValueError):
                mf_convex_roof(mixed, restarts=restarts, seed=7)
        # the estimator is randomized, so it never runs on a seed it was not given
        with pytest.raises(TypeError):
            mf_convex_roof(mixed, restarts=4)

    def test_step_cap_validation(self):
        # a negative step cap used to return the unmoved start, as max_iter=0 does
        op = random_cptp(2, 2, 1)
        for max_iter in (-1, -3):
            with pytest.raises(ValueError, match="max_iter must be at least 0"):
                mf_convex_roof(op, restarts=4, max_iter=max_iter, seed=0)

    def test_default_step_cap_descends_below_the_start(self):
        # at the default max_iter the descent takes steps: its value lies
        # strictly below the unmoved start's, the max_iter=0 value
        rng = np.random.default_rng(31)
        ops = [random_cptp(2, env, rng) for env in (2, 3, 4)]
        p = float(rng.uniform(0.2, 0.8))
        ops.append(mix_operations([p, 1 - p], [random_unitary(2, rng), random_unitary(2, rng)]))
        for n, op in enumerate(ops):
            start = mf_convex_roof(op, restarts=6, max_iter=0, seed=n).value
            assert mf_convex_roof(op, restarts=6, seed=n).value < start

    def test_ensemble_weight_validation(self):
        # weights summing to 0.5, a NaN row, no rows at all, and an all-zero
        # row, whose weight sums to one with the rest but whose member is 0 / 0
        for rows in ([[np.sqrt(0.5), 0, 0, 0]], [[np.nan, 0, 0, 0]], np.zeros((0, 4)), [[1, 0, 0, 0], [0, 0, 0, 0]]):
            with pytest.raises(WeightError):
                Ensemble(np.array(rows))

    def test_ensemble_row_width_is_a_square(self):
        for rows in (np.ones((2, 3)) / np.sqrt(6), np.ones(4) / 2):
            with pytest.raises(DimensionMismatchError):
                Ensemble(rows)

    def test_ensemble_holds_a_read_only_copy_of_its_rows(self):
        rows = np.array([[0.6, 0, 0, 0.6j], [0, 0.2, -0.2, 0.4 + 0.2j]])
        ens = Ensemble(rows)
        assert np.allclose(ens.weights, [0.72, 0.28])
        assert ens.rows is not rows and not ens.rows.flags.writeable
        assert max_abs(ens.reconstruction - rows.T @ rows.conj()) <= 1e-15

    def test_reconstruction_is_the_member_order_sum(self):
        rng = np.random.default_rng(37)
        for d in (2, 3):
            for n in range(1, 17):
                rows = rng.standard_normal((n, d * d)) + 1j * rng.standard_normal((n, d * d))
                ens = Ensemble(rows / np.linalg.norm(rows))
                terms = [w * m for w, m in zip(ens.weights, ens._matrices())]
                expected = terms[0]
                for term in terms[1:]:
                    expected = expected + term
                assert ens.reconstruction.tobytes() == expected.tobytes()

    def test_members_are_built_only_when_read(self):
        mixed = mix_operations([0.55, 0.45], [random_unitary(2, np.random.default_rng(17)), hadamard_operation()])
        ens = mf_convex_roof(mixed, restarts=4, max_iter=200, seed=18).ensemble
        assert "members" not in vars(ens)
        members = [m.choi.matrix for m in ens.members]
        # the reconstruction is the sum of the members' admitted Choi matrices, bit for bit
        assert np.array_equal(ens.reconstruction, sum(w * m for w, m in zip(ens.weights, members)))
        assert all(m.choi.is_pure() for m in ens.members)

    def test_incoherent_mixture_stops_at_zero(self):
        rng = np.random.default_rng(12)
        mixed = mix_operations([0.4, 0.6], [random_incoherent_cptp(2, rng), random_incoherent_cptp(2, rng)])
        res = mf_convex_roof(mixed, restarts=6, max_iter=600, seed=13)
        assert res.value == 0.0
        assert res.history == (0.0,) * 6

    def test_seeded_runs_are_identical(self):
        mixed = mix_operations([0.7, 0.3], [hadamard_operation(), identity_operation(2)])
        runs = [
            mf_convex_roof(mixed, restarts=5, max_iter=300, seed=seed)
            for seed in (14, 14, np.random.default_rng(14))
        ]
        for other in runs[1:]:
            assert other.value == runs[0].value
            assert other.history == runs[0].history
            assert np.array_equal(other.ensemble.weights, runs[0].ensemble.weights)

    def test_value_is_what_the_ensemble_attains(self):
        rng = np.random.default_rng(15)
        mixed = mix_operations([0.55, 0.45], [random_unitary(2, rng), random_unitary(2, rng)])
        res = mf_convex_roof(mixed, restarts=4, max_iter=500, seed=16)
        attained = 0.0
        for w, member in zip(res.ensemble.weights, res.ensemble.members):
            # 1 - max C_kk as the sum of the other diagonal entries keeps its digits
            diag = np.sort(np.real(np.diag(member.choi.matrix)))
            attained += w * math.sqrt(max(float(diag[:-1].sum()), 0.0))
        assert abs(res.value - attained) <= 1e-12
        assert res.value <= res.history[-1] + 1e-12

    def test_direction_matches_finite_difference(self):
        # xi is tangent (v^dagger xi skew-Hermitian), along a tangent Y the
        # value moves by 2 Re tr(xi^dagger Y), and the value comes out with
        # the bits of the row terms' sum
        rng = np.random.default_rng(18)
        h = 1e-6
        for _ in range(10):
            lam, vecs = random_cptp(2, 4, rng).choi.support()
            a_t = (vecs * np.sqrt(lam)).T
            r = lam.size
            v = _random_isometries(1, r * r, r, rng)[0]
            y = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
            vy = dagger(v) @ y
            y -= v @ ((vy + dagger(vy)) / 2)

            def value(w):
                return float(_row_terms(w @ a_t).sum())

            total, xi = _value_and_direction(v, v @ a_t, dagger(a_t))
            assert total == _row_terms(v @ a_t).sum()
            vxi = dagger(v) @ xi
            assert max_abs(vxi + dagger(vxi)) <= 1e-12
            numeric = (value(v + h * y) - value(v - h * y)) / (2 * h)
            exact = 2 * float(np.real(np.vdot(xi, y)))
            assert abs(numeric - exact) <= 1e-7

    def test_peak_memory_at_256_restarts(self):
        op = random_cptp(2, 4, np.random.default_rng(19))
        assert op.choi.support().eigenvalues.size == 4
        tracemalloc.start()
        try:
            mf_convex_roof(op, restarts=256, max_iter=100, seed=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_descent_stops_when_the_best_stalls(self, monkeypatch):
        # at most _STEPS steps on every input, ended sooner once the best
        # value stalls, and max_iter above that length changes nothing
        steps = []
        monkeypatch.setattr(coherence, "_retract", lambda v: steps.append(1) or _retract(v))
        rng = np.random.default_rng(21)
        counts = []
        for op in (
            mix_operations([0.7, 0.3], [hadamard_operation(), identity_operation(2)]),
            random_cptp(2, 3, rng),
            mix_operations([0.55, 0.45], [random_unitary(2, rng), random_unitary(2, rng)]),
            random_cptp(2, 4, rng),
        ):
            steps.clear()
            capped = mf_convex_roof(op, restarts=6, max_iter=2000, seed=22)
            counts.append(len(steps))
            free = mf_convex_roof(op, restarts=6, max_iter=20000, seed=22)
            assert capped.value == free.value
            assert capped.history == free.history
            steps.clear()
            mf_convex_roof(op, restarts=6, max_iter=7, seed=22)
            assert len(steps) == 7
        assert max(counts) <= coherence._STEPS
        assert counts[0] < 50  # 0.7 H + 0.3 I

    def test_stopped_value_stays_at_the_full_length_value(self):
        # the stall stop gives up nothing on almost every input; on about 1
        # in 200, a lane creeping at a kink would have overtaken the stalled
        # best after the stop, by 8e-6 to 4.1e-5 over 1280 inputs
        rng = np.random.default_rng(24)
        excess = []
        for n in range(64):
            if n % 4 < 3:
                op = random_cptp(2, 2 + n % 4, rng)
            else:
                p = float(rng.uniform(0.2, 0.8))
                op = mix_operations([p, 1 - p], [random_unitary(2, rng), random_unitary(2, rng)])
            assert not is_incoherent_operation(op.choi).ok
            stopped = mf_convex_roof(op, restarts=6, max_iter=600, seed=n).value
            full = _reference_roof(op, 6, 600, n, stall=False)[0]
            excess.append(stopped - full)
        assert max(excess) <= 1e-4
        assert sum(e > 1e-9 for e in excess) <= 2
        assert float(np.median(excess)) <= 1e-12


def _reference_gradient(v, a_t):
    # the direction with psi = v a_t taken afresh, and dagger for each adjoint
    psi = v @ a_t
    mod2 = np.abs(psi) ** 2
    p = mod2.sum(axis=-1, keepdims=True)
    q = mod2.max(axis=-1, keepdims=True)
    top = np.arange(mod2.shape[-1]) == mod2.argmax(axis=-1)[..., None]
    f = np.sqrt(p * (p - q))
    z = psi * ((2.0 * p - q - p * top) / np.where(f > 0, 2.0 * f, np.inf))
    g = z @ dagger(a_t)
    vg = dagger(v) @ g
    return g - v @ ((vg + dagger(vg)) / 2)


def _reference_roof(op, restarts, max_iter, seed, stall=True):
    """Reference descent that takes psi = v a_t and the direction afresh on every step.

    Its last lane is the Uhlmann lane wherever the estimator has one.

    With ``stall`` it ends once the least lane value has gained no more
    than 1e-12 of itself over the last 15 steps; without, it runs the full
    length.  Returns (value, history, weights, steps taken).
    """
    lam, vecs = op.choi.support()
    r = lam.size
    m = r * r
    a_t = (vecs * np.sqrt(lam)).T
    rng = rng_from(seed)
    v = np.empty((restarts, m, r), dtype=complex)
    v[0] = np.eye(m, r)
    v[1:] = _random_isometries(restarts - 1, m, r, rng)
    if restarts >= 2 and r >= op.d:
        # the Uhlmann lane: rows sqrt(C) W|k> of the ascent's unitary, padded with zero rows
        w = incoherent_fidelity_ascent(op.choi.root, coherence._LANE_STEPS)[2]
        v[-1] = 0.0
        v[-1, : w.shape[0]] = w.T @ vecs.conj()
    values = _row_terms(v @ a_t).sum(axis=1)
    step = np.full(restarts, 0.5)
    steps = 0
    best = [float(values.min())]
    for _ in range(min(max_iter, coherence._STEPS)):
        if values.min() <= coherence._ZERO:
            break
        trial = _retract(v - step[:, None, None] * _reference_gradient(v, a_t))
        trial_values = _row_terms(trial @ a_t).sum(axis=1)
        accept = trial_values < values
        step = np.where(accept, 1.3 * step, 0.5 * step)
        v[accept] = trial[accept]
        values[accept] = trial_values[accept]
        steps += 1
        best.append(float(values.min()))
        if stall and steps >= 15 and best[steps - 15] - best[steps] <= 1e-12 * best[steps]:
            break
    history = tuple(float(h) for h in np.minimum.accumulate(values))
    psi = v[np.argmin(values)] @ a_t
    p = (np.abs(psi) ** 2).sum(axis=1)
    kept = p > 1e-12
    return float(_row_terms(psi[kept]).sum()), history, p[kept], steps


def _descent_inputs():
    rng = np.random.default_rng(23)
    yield mix_operations([0.7, 0.3], [hadamard_operation(), identity_operation(2)])
    for env in (2, 3, 4):
        yield random_cptp(2, env, rng)
    yield mix_operations([0.4, 0.6], [random_incoherent_cptp(2, rng), random_incoherent_cptp(2, rng)])
    yield random_cptp(3, 2, rng)
    yield mix_operations([0.55, 0.45], [random_unitary(2, rng), random_unitary(2, rng)])
    yield random_cptp(3, 3, rng)


class TestCarriedDescent:
    def test_bit_identical_to_the_reference_loop(self):
        for n, op in enumerate(_descent_inputs()):
            for restarts in (1, 3, 6, 16):
                for max_iter in (0, 1, 7, 600):
                    seed = 100 * n + restarts
                    res = mf_convex_roof(op, restarts=restarts, max_iter=max_iter, seed=seed)
                    value, history, weights, _ = _reference_roof(op, restarts, max_iter, seed)
                    assert res.value == value
                    assert res.history == history
                    assert res.ensemble.weights.shape == weights.shape
                    assert (res.ensemble.weights == weights).all()

    def test_one_value_and_direction_pass_per_step(self, monkeypatch):
        # the start stack and each step's trial are scored once, with the
        # direction taken in the same pass
        passes, steps = [], []
        monkeypatch.setattr(
            coherence, "_value_and_direction", lambda *args: passes.append(1) or _value_and_direction(*args)
        )
        monkeypatch.setattr(coherence, "_retract", lambda v: steps.append(1) or _retract(v))
        for n, op in enumerate(_descent_inputs()):
            passes.clear()
            steps.clear()
            mf_convex_roof(op, restarts=6, max_iter=600, seed=n)
            assert len(steps) == _reference_roof(op, 6, 600, n)[3]
            assert len(passes) == 1 + len(steps)

    def test_a_trial_not_positive_definite_is_rejected(self, monkeypatch):
        # a trial x with a zero column has a singular Gram matrix: its lane retracts
        # to NaN, which never lowers the lane's value, so the lane keeps its V
        calls, nan_lanes = [], []

        def retract(x):
            calls.append(1)
            if len(calls) != 3:
                return _retract(x)
            x = x.copy()
            x[1, :, 0] = 0.0
            out = _retract(x)
            nan_lanes.append(np.isnan(out).any(axis=(1, 2)).tolist())
            return out

        monkeypatch.setattr(coherence, "_retract", retract)
        op = random_cptp(2, 3, np.random.default_rng(38))
        res = mf_convex_roof(op, restarts=6, seed=39)
        assert nan_lanes == [[False, True, False, False, False, False]] and len(calls) > 3
        assert max_abs(res.ensemble.reconstruction - op.choi.matrix) <= 1e-8
        assert res.value <= mf_convex_roof(op, restarts=6, max_iter=0, seed=39).value


def _tangent_trials(rng, lanes, r, t):
    """x = V - t xi at random m x r isometries V, m = r^2 + 1, and tangents xi at V.

    xi = (1 - V V^dagger) G diag(1, ..., 0), scaled to spectral norm 1, is
    tangent since V^dagger xi = 0, and for r >= 2 its smallest singular
    value is 0, so x^dagger x = I + t^2 xi^dagger xi gives
    kappa(x) = sqrt(1 + t^2).  The extra row leaves r = 1 a tangent off V.
    """
    m = r * r + 1
    g = rng.standard_normal((lanes, m, r)) + 1j * rng.standard_normal((lanes, m, r))
    v = np.linalg.qr(g)[0]
    g = rng.standard_normal((lanes, m, r)) + 1j * rng.standard_normal((lanes, m, r))
    xi = (g - v @ (dagger(v) @ g)) * np.linspace(1.0, 0.0, r)
    xi /= np.linalg.norm(xi, ord=2, axis=(-2, -1))[:, None, None]
    return v - t * xi


def _polar_factor(x):
    # the isometry nearest to x: U W^dagger of its SVD x = U S W^dagger
    u, _, wh = np.linalg.svd(x, full_matrices=False)
    return u @ wh


class TestRetraction:
    @pytest.mark.parametrize("lanes", [1, 6, 32])
    def test_equals_the_phase_fixed_householder_q(self, lanes):
        # qf(x) = Q D with Q R = x from LAPACK's QR and D the phases of R's
        # diagonal: the one isometry Q' with Q'^dagger x upper triangular
        # and of positive real diagonal
        rng = np.random.default_rng(32)
        kappas = []
        for r in range(1, 10):
            for t in (0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0, 99.0):
                x = _tangent_trials(rng, lanes, r, t)
                kappas.append(np.linalg.cond(x).max())
                q = _retract(x)
                householder_q, householder_r = np.linalg.qr(x)
                diagonal = np.diagonal(householder_r, axis1=-2, axis2=-1)
                assert max_abs(q - householder_q * (diagonal / np.abs(diagonal))[:, None, :]) <= 1e-12
                assert max_abs(dagger(q) @ q - np.eye(r)) <= 1e-12
                triangle = dagger(q) @ x
                assert max_abs(np.tril(triangle, -1)) <= 1e-12 * max(1.0, t)
                diagonal = np.diagonal(triangle, axis1=-2, axis2=-1)
                assert np.abs(diagonal.imag).max() <= 1e-12 * max(1.0, t) and (diagonal.real > 0).all()
        assert 99.0 < max(kappas) <= 100.0

    def test_agrees_with_the_polar_factor_to_first_order(self):
        # |qf(V - t xi) - polar(V - t xi)| = O(t^2): both retractions are
        # V - t xi + O(t^2) for xi tangent at V
        rng = np.random.default_rng(33)
        for r in range(1, 10):
            for t in (1e-2, 1e-3):
                x = _tangent_trials(rng, 6, r, t)
                assert max_abs(_retract(x) - _polar_factor(x)) <= t * t

def _grid_fidelity(root, rounds=20):
    """Largest F(rho, diag s) on a simplex grid of step 1/24 at d=2, then on finer grids around the best point."""
    n = 24
    grid = np.array([(i, j, k, n - i - j - k) for i in range(n + 1) for j in range(n + 1 - i) for k in range(n + 1 - i - j)])
    points, h = grid / n, 1.0 / n
    offsets = np.stack(np.meshgrid(*[np.arange(-3, 4)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    best = None
    for _ in range(rounds):
        points = points[(points >= 0).all(axis=1)]
        f = np.linalg.svd(root * np.sqrt(points)[:, None, :], compute_uv=False).sum(axis=1) ** 2
        best = points[np.argmax(f)], float(f.max())
        h /= 2
        steps = h * np.concatenate([offsets, -offsets.sum(axis=1, keepdims=True)], axis=1)
        points = best[0] + steps
    return best[1]


class TestGeometricBound:
    def test_ascent_reaches_the_grid_maximum_at_d2(self):
        rng = np.random.default_rng(26)
        for n in range(8):
            op = random_cptp(2, 2 + n % 3, rng) if n % 2 else mix_operations(
                [0.3, 0.7], [random_unitary(2, rng), random_unitary(2, rng)]
            )
            f, s, w = incoherent_fidelity_ascent(op.choi.root, 1000)
            # F, s and W belong together: F is the fidelity with diag(s), attained by W
            assert abs(f - uhlmann_fidelity(op.choi.matrix, np.diag(s))) <= 1e-12
            assert abs(f - float(np.real(np.trace(dagger(w) @ op.choi.root * np.sqrt(s)))) ** 2) <= 1e-12
            assert abs(f - _grid_fidelity(op.choi.root)) <= 1e-6

    def test_ascent_never_lowers_the_fidelity(self):
        rng = np.random.default_rng(27)
        for n in range(20):
            root = random_cptp(2 + n % 2, 3, rng).choi.root
            fs = [incoherent_fidelity_ascent(root, steps)[0] for steps in range(8)]
            assert all(b >= a - 1e-15 for a, b in zip(fs, fs[1:]))

    def test_uhlmann_rows_reconstruct_the_choi_state(self):
        rng = np.random.default_rng(28)
        for n in range(40):
            d = 2 + n % 2
            choi = random_cptp(d, d + n % 3, rng).choi
            lam, vecs = choi.support()
            r = lam.size
            a_t = (vecs * np.sqrt(lam)).T
            v = _uhlmann_lane(choi.root, vecs, r * r)
            f = incoherent_fidelity_ascent(choi.root, coherence._LANE_STEPS)[0]
            assert max_abs(dagger(v) @ v - np.eye(r)) <= 1e-12
            ens = Ensemble((v @ a_t)[: d * d])
            assert max_abs(ens.reconstruction - (vecs * lam) @ dagger(vecs)) <= 1e-12
            # and the lane starts at or below the bound its F gives
            assert _row_terms(ens.rows).sum() <= math.sqrt(1.0 - f) + 1e-12

    def test_descent_ends_at_or_below_the_lane_bound(self):
        # the lane starts at or below sqrt(1 - F) and a lane only moves down
        rng = np.random.default_rng(29)
        present = 0
        for n in range(48):
            d = 2 + n % 2
            if n % 3:
                op = random_cptp(d, 2 + n % 4, rng)
            else:
                op = mix_operations([0.4, 0.6], [random_unitary(d, rng), random_unitary(d, rng)])
            if op.choi.support().eigenvalues.size < d:
                continue  # r^2 < d^2: no lane
            present += 1
            f = incoherent_fidelity_ascent(op.choi.root, coherence._LANE_STEPS)[0]
            res = mf_convex_roof(op, restarts=6, max_iter=600, seed=n)
            assert res.value <= math.sqrt(1.0 - f) + 1e-12
        assert present >= 30

    def test_gate_settles_checks_without_the_descent(self, monkeypatch):
        # the gate returns the bound whether or not it settles the check, and
        # never runs the roof estimator: a check it leaves open is inconclusive
        monkeypatch.setattr(coherence, "mf_convex_roof", lambda *a, **k: pytest.fail("the roof estimator ran"))
        rng = np.random.default_rng(30)
        ops = [random_cptp(2, 3, rng), mix_operations([0.5, 0.5], [random_unitary(2, rng), random_unitary(2, rng)])]
        for op in ops:
            ceiling = math.sqrt(1.0 - incoherent_fidelity_ascent(op.choi.root, 1000)[0])
            for rhs in (ceiling, ceiling + 0.1):
                value, exact = _measure_value(op, rhs)
                assert not exact and value <= rhs + AXIOM_SLACK
            rhs = ceiling - 0.01
            bound = math.sqrt(1.0 - incoherent_fidelity_ascent(op.choi.root, coherence._GATE_STEPS, rhs + AXIOM_SLACK)[0])
            assert _measure_value(op, rhs) == (bound, False) and bound > rhs + AXIOM_SLACK
            report = coherence.AxiomReport()
            coherence._check(report, "convexity", "unsettled", bound, rhs, False)
            assert [c.status for c in report.checks] == ["inconclusive"]
        for seed in range(20):
            report = verify_axioms(samples=20, seed=seed)
            assert report.count("pass") == len(report.checks) == 122

    def test_an_unsettled_check_is_listed_inconclusive_never_failed(self, monkeypatch):
        # an ascent that settles nothing leaves the bound at 1, above every rhs, on each mixed input
        monkeypatch.setattr(coherence, "mf_convex_roof", lambda *a, **k: pytest.fail("the roof estimator ran"))
        monkeypatch.setattr(coherence, "incoherent_fidelity_ascent", lambda *a: (0.0,))
        details = {c["name"]: c["details"] for c in suite_axioms(4, 0)}
        assert all(d["failed"] == 0 for d in details.values())
        assert details["axiom nonnegativity"]["inconclusive_cases"] == [f"incoherent channel #{n} scores zero" for n in range(4)]
        assert details["axiom monotonicity"]["inconclusive_cases"] == ["two-branch ISO mixture #0", "two-branch ISO mixture #1"]
        assert details["axiom strong_monotonicity"]["inconclusive"] == 0
        convexity = details["axiom convexity"]["inconclusive_cases"]
        assert len(convexity) == 6 and convexity[-2:] == ["incoherent mixture #0", "incoherent mixture #1"]


class TestDispatch:
    def test_auto_prefers_closed_form_for_qubit_unitaries(self):
        res = measure_coherence(identity_operation(2))
        assert res.kind == "closed_form_qubit"

    def test_auto_uses_pure_for_non_unitary_pure(self):
        res = measure_coherence(max_coherent_operation(np.zeros(4)))
        assert res.kind == "exact_pure"

    def test_auto_falls_back_to_roof(self):
        res = measure_coherence(dephasing_operation(2), restarts=2, max_iter=200, seed=8)
        assert res.kind == "convex_roof_upper_bound"

    def test_method_errors(self):
        with pytest.raises(MethodInapplicableError):
            measure_coherence(dephasing_operation(2), method="pure")
        with pytest.raises(MethodInapplicableError):
            measure_coherence(dephasing_operation(2), method="qubit-closed-form")
        with pytest.raises(MethodInapplicableError):
            measure_coherence(identity_operation(2), method="no-such-method")
        # the roof is randomized, so it never runs unseeded
        for method in ("auto", "convex-roof"):
            with pytest.raises(MethodInapplicableError):
                measure_coherence(dephasing_operation(2), method=method, seed=None)
            with pytest.raises(MethodInapplicableError, match="seed is required"):
                measure_coherence(dephasing_operation(2), method=method)


class TestAxiomHarness:
    def test_small_run_has_no_hard_failures(self):
        report = verify_axioms(samples=8, seed=9)
        assert report.ok
        assert report.count("pass") > 0

    def test_rejects_fewer_than_one_sample(self):
        # with no samples the harness would pass without checking anything
        for samples in (0, -1):
            with pytest.raises(ValueError, match="samples must be at least 1"):
                verify_axioms(samples=samples, seed=9)
        # its roof estimates are randomized, so the harness needs an explicit seed
        with pytest.raises(TypeError):
            verify_axioms(samples=4)

    def test_coherent_unitary_check_fails_on_a_zero_measure(self, monkeypatch):
        # the check once passed whenever the value was nonnegative
        def zero_on_unitaries(op):
            return MeasureResult(value=0.0, kind="exact_pure") if op.kind == "unitary" else mf_pure(op)

        monkeypatch.setattr(coherence, "mf_pure", zero_on_unitaries)
        report = verify_axioms(samples=10, seed=1)
        positive = [c for c in report.checks if "scores positive" in c.description]
        assert len(positive) == 10
        assert all(c.status == "fail" for c in positive)

    def test_strong_monotonicity_outcome_weights_sum_to_one(self):
        # both Choi-space Kraus sets are trace preserving
        rng = np.random.default_rng(25)
        for n in range(40):
            kraus = (_partition_projectors if n % 2 == 0 else _two_branch_choi_kraus)(4, rng)
            outcomes = kraus_outcomes(Superoperation.from_kraus_on_choi(kraus), random_unitary(2, rng))
            assert abs(sum(p for p, _ in outcomes) - 1.0) <= 1e-12

    def test_axioms_cover_all_four_conditions(self):
        report = verify_axioms(samples=4, seed=10)
        seen = {c.axiom for c in report.checks}
        assert seen == {"nonnegativity", "monotonicity", "strong_monotonicity", "convexity"}

    def test_permutation_iso_preserves_measure_exactly(self):
        # monotonicity holds with equality for permutation-phase ISO
        report = verify_axioms(samples=6, seed=11)
        mono = [c for c in report.checks if c.axiom == "monotonicity" and "permutation" in c.description]
        assert mono
        for c in mono:
            assert abs(c.lhs - c.rhs) <= 1e-9
