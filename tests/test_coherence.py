"""Fidelity, the measure in its three forms, and the axiom harness."""

import math
import tracemalloc

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
    SQRT2_OVER_2,
    SQRT3_OVER_2,
    Ensemble,
    max_coherent_operation,
    measure_coherence,
    mf_convex_roof,
    mf_pure,
    mf_single_qubit_unitary,
    operation_fidelity,
    uhlmann_fidelity,
    verify_axioms,
)
from qopcoh.coherence import _polar, _random_isometries, _row_terms, _tangent_gradient
from qopcoh.exceptions import (
    DimensionMismatchError,
    MethodInapplicableError,
    NotDensityMatrixError,
    NotPureChoiError,
    NotUnitaryError,
)
from qopcoh.linalg import dagger, max_abs


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
    def test_self_fidelity(self):
        op = random_unitary(2, 43)
        assert abs(operation_fidelity(op, op) - 1.0) <= 1e-12

    def test_identity_vs_pauli_x_is_zero(self):
        f = operation_fidelity(identity_operation(2), pauli_x_operation())
        assert f <= 1e-12

    def test_identity_vs_dephasing_is_half(self):
        f = operation_fidelity(identity_operation(2), dephasing_operation(2))
        assert abs(f - 0.5) <= 1e-10

    def test_equals_the_fidelity_of_the_readmitted_choi_matrices(self):
        # the roots held since admission give the same number, bit for bit
        for seed in range(150):
            d = 2 + seed % 2
            a = random_cptp(d, 1 + seed % 3, seed) if seed % 4 else random_unitary(d, seed)
            b = random_cptp(d, 2, 1000 + seed)
            assert operation_fidelity(a, b) == uhlmann_fidelity(a.choi.matrix, b.choi.matrix)


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
        assert max_abs(res.ensemble.reconstruction() - mixed.choi.matrix) <= 1e-8
        assert abs(float(np.sum(res.ensemble.weights)) - 1.0) <= 1e-9

    def test_upper_bound_against_known_decomposition(self):
        mixed = mix_operations([0.7, 0.3], [hadamard_operation(), identity_operation(2)])
        bound = 0.7 * SQRT3_OVER_2 + 0.3 * SQRT2_OVER_2
        res = mf_convex_roof(mixed, restarts=6, max_iter=600, seed=6)
        assert res.value <= bound + 1e-9

    def test_restart_count_validation(self):
        # a nonpositive count used to run one restart without saying so
        mixed = mix_operations([0.5, 0.5], [identity_operation(2), pauli_z_operation()])
        for restarts in (0, -3):
            with pytest.raises(ValueError):
                mf_convex_roof(mixed, restarts=restarts, seed=7)

    def test_ensemble_weight_validation(self):
        member = (identity_operation(2),)
        for weights in ([0.5], [np.nan], [-1.0]):
            with pytest.raises(ValueError):
                Ensemble(weights=np.array(weights), members=member)

    def test_ensemble_needs_one_weight_per_member(self):
        # zip used to drop the extra weights, so half a state was admitted
        op = identity_operation(2)
        with pytest.raises(DimensionMismatchError, match="one weight per ensemble member"):
            Ensemble(weights=np.array([0.5, 0.5]), members=(op,))
        with pytest.raises(DimensionMismatchError, match="one weight per ensemble member"):
            Ensemble(weights=np.array([1.0]), members=())
        assert Ensemble(weights=np.array([0.5, 0.5]), members=(op, op)).members == (op, op)

    def test_ensemble_members_share_one_dimension(self):
        # mixed dimensions used to reach numpy's broadcast error in reconstruction()
        with pytest.raises(DimensionMismatchError, match="share one dimension"):
            Ensemble(weights=np.array([0.5, 0.5]), members=(identity_operation(2), identity_operation(3)))

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
        # xi is tangent (v^dagger xi skew-Hermitian), and along a tangent Y
        # the value moves by 2 Re tr(xi^dagger Y)
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

            xi = _tangent_gradient(v, v @ a_t, dagger(a_t))
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
        monkeypatch.setattr(coherence, "_polar", lambda v: steps.append(1) or _polar(v))
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

    With ``stall`` it ends once the least lane value has gained no more
    than 1e-12 of itself over the last 15 steps; without, it runs the full
    length.  Returns (value, history, weights, steps taken, steps in which
    some lane accepted).
    """
    lam, vecs = op.choi.support()
    r = lam.size
    m = r * r
    a_t = (vecs * np.sqrt(lam)).T
    rng = rng_from(seed)
    v = np.empty((restarts, m, r), dtype=complex)
    v[0] = np.eye(m, r)
    v[1:] = _random_isometries(restarts - 1, m, r, rng)
    values = _row_terms(v @ a_t).sum(axis=1)
    step = np.full(restarts, 0.5)
    steps = accepting = 0
    best = [float(values.min())]
    for _ in range(min(max_iter, coherence._STEPS)):
        if values.min() <= coherence._ZERO:
            break
        trial = _polar(v - step[:, None, None] * _reference_gradient(v, a_t))
        trial_values = _row_terms(trial @ a_t).sum(axis=1)
        accept = trial_values < values
        step = np.where(accept, 1.3 * step, 0.5 * step)
        v[accept] = trial[accept]
        values[accept] = trial_values[accept]
        steps += 1
        accepting += bool(accept.any())
        best.append(float(values.min()))
        if stall and steps >= 15 and best[steps - 15] - best[steps] <= 1e-12 * best[steps]:
            break
    history = tuple(float(h) for h in np.minimum.accumulate(values))
    psi = v[np.argmin(values)] @ a_t
    p = (np.abs(psi) ** 2).sum(axis=1)
    kept = p > 1e-12
    return float(_row_terms(psi[kept]).sum()), history, p[kept], steps, accepting


def _descent_inputs():
    rng = np.random.default_rng(23)
    yield mix_operations([0.7, 0.3], [hadamard_operation(), identity_operation(2)])
    for env in (2, 3, 4):
        yield random_cptp(2, env, rng)
    yield mix_operations([0.4, 0.6], [random_incoherent_cptp(2, rng), random_incoherent_cptp(2, rng)])
    yield random_cptp(3, 2, rng)


class TestCarriedDescent:
    def test_bit_identical_to_the_reference_loop(self):
        for n, op in enumerate(_descent_inputs()):
            for restarts in (1, 3, 6, 16):
                for max_iter in (0, 1, 7, 600):
                    seed = 100 * n + restarts
                    res = mf_convex_roof(op, restarts=restarts, max_iter=max_iter, seed=seed)
                    value, history, weights, _, _ = _reference_roof(op, restarts, max_iter, seed)
                    assert res.value == value
                    assert res.history == history
                    assert res.ensemble.weights.shape == weights.shape
                    assert (res.ensemble.weights == weights).all()

    def test_direction_is_kept_through_rejected_steps(self, monkeypatch):
        # a step after one in which no lane accepted reuses the direction
        evaluations, steps = [], []
        monkeypatch.setattr(
            coherence, "_tangent_gradient", lambda *args: evaluations.append(1) or _tangent_gradient(*args)
        )
        monkeypatch.setattr(coherence, "_polar", lambda v: steps.append(1) or _polar(v))
        for n, op in enumerate(_descent_inputs()):
            evaluations.clear()
            steps.clear()
            seed = 22 if n == 0 else n
            mf_convex_roof(op, restarts=6, max_iter=600, seed=seed)
            _, _, _, reference_steps, accepting = _reference_roof(op, 6, 600, seed)
            assert len(steps) == reference_steps
            assert len(evaluations) <= 1 + accepting
            if n == 0:  # 0.7 H + 0.3 I
                assert len(evaluations) < len(steps)


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
