"""Fidelity, the measure in its three forms, and the axiom harness."""

import math
import tracemalloc

import numpy as np
import pytest

from qopcoh import coherence
from qopcoh.channel import (
    HADAMARD,
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
)
from qopcoh.coherence import (
    SQRT2_OVER_2,
    SQRT3_OVER_2,
    Ensemble,
    euler_params_from_unitary,
    max_coherent_operation,
    measure_coherence,
    mf_convex_roof,
    mf_pure,
    mf_single_qubit_unitary,
    operation_fidelity,
    uhlmann_fidelity,
    unitary_from_euler,
    verify_axioms,
)
from qopcoh.coherence import _random_isometries, _row_terms, _tangent_gradient
from qopcoh.exceptions import (
    MethodInapplicableError,
    NotDensityMatrixError,
    NotPureChoiError,
    NotUnitaryError,
    UnsupportedDimError,
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


class TestEulerParameters:
    def test_identity_has_zero_gamma(self):
        p = euler_params_from_unitary(np.eye(2))
        assert p.gamma == 0.0
        assert max_abs(unitary_from_euler(p) - np.eye(2)) <= 1e-12

    def test_hadamard(self):
        p = euler_params_from_unitary(HADAMARD)
        assert abs(p.gamma - math.pi / 2) <= 1e-12
        assert abs(np.exp(2j * p.alpha) + 1.0) <= 1e-12  # e^{2i alpha} = -1
        assert max_abs(unitary_from_euler(p) - HADAMARD) <= 1e-10

    def test_pauli_x_has_gamma_pi(self):
        p = euler_params_from_unitary(PAULI_X)
        assert abs(p.gamma - math.pi) <= 1e-12
        assert max_abs(unitary_from_euler(p) - PAULI_X) <= 1e-10

    def test_reconstruction_on_haar_samples(self):
        rng = np.random.default_rng(46)
        for _ in range(300):
            u = haar_unitary(2, rng)
            p = euler_params_from_unitary(u)
            assert 0.0 <= p.gamma <= math.pi
            assert max_abs(unitary_from_euler(p) - u) <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            euler_params_from_unitary(np.array([[1, 1], [0, 1]], dtype=complex))
        with pytest.raises(NotUnitaryError):
            euler_params_from_unitary(np.eye(3))
        for bad in (np.inf, np.nan):
            with pytest.raises(NotUnitaryError):
                euler_params_from_unitary(np.array([[bad, 0], [0, 1]], dtype=complex))
            with pytest.raises(NotUnitaryError):
                mf_single_qubit_unitary(np.array([[bad, 0], [0, 1]], dtype=complex))


class TestClosedFormQubit:
    def test_identity_and_x_attain_lower_endpoint(self):
        assert abs(mf_single_qubit_unitary(np.eye(2)).value - SQRT2_OVER_2) <= 1e-12
        assert abs(mf_single_qubit_unitary(PAULI_X).value - SQRT2_OVER_2) <= 1e-12

    def test_gamma_pi_over_three(self):
        # min{sqrt(1 - 3/8), sqrt(1 - 1/8)} = sqrt(5/8)
        from qopcoh.coherence import EulerParams

        u = unitary_from_euler(EulerParams(alpha=0.0, beta=0.0, gamma=math.pi / 3, delta=0.0))
        assert abs(mf_single_qubit_unitary(u).value - math.sqrt(5 / 8)) <= 1e-12

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

    def test_only_qubit_supported(self):
        with pytest.raises(UnsupportedDimError):
            max_coherent_operation(np.zeros(4), d=3)


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

    def test_ensemble_size_validation(self):
        mixed = mix_operations([0.5, 0.5], [identity_operation(2), pauli_z_operation()])
        with pytest.raises(ValueError):
            mf_convex_roof(mixed, seed=7, ensemble_size=1)

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

    def test_smallest_ensemble_size(self):
        mixed = mix_operations([0.7, 0.3], [hadamard_operation(), identity_operation(2)])
        rank = mixed.choi.support().eigenvalues.size
        res = mf_convex_roof(mixed, restarts=3, max_iter=300, seed=17, ensemble_size=rank)
        assert len(res.ensemble.members) <= rank
        assert max_abs(res.ensemble.reconstruction() - mixed.choi.matrix) <= 1e-8

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

            xi = _tangent_gradient(v, a_t)
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

    def test_descent_length_is_fixed(self, monkeypatch):
        # the same number of steps on every coherent input, whatever its
        # entries, and max_iter above that length changes nothing
        steps = []
        monkeypatch.setattr(
            coherence, "_tangent_gradient", lambda v, a_t: steps.append(1) or _tangent_gradient(v, a_t)
        )
        rng = np.random.default_rng(21)
        counts = []
        for op in (
            mix_operations([0.7, 0.3], [hadamard_operation(), identity_operation(2)]),
            random_cptp(2, 3, rng),
            mix_operations([0.55, 0.45], [random_unitary(2, rng), random_unitary(2, rng)]),
            random_cptp(2, 4, rng),
        ):
            steps.clear()
            capped, free = (mf_convex_roof(op, restarts=6, max_iter=n, seed=22) for n in (2000, 20000))
            assert capped.value == free.value
            assert capped.history == free.history
            counts.append(len(steps))
            steps.clear()
            mf_convex_roof(op, restarts=6, max_iter=7, seed=22)
            assert len(steps) == 7
        assert len(set(counts)) == 1


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
