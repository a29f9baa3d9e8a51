"""Choi construction, inversion, predicates, and random generators."""

import numpy as np
import pytest

from qopcoh.channel import (
    HADAMARD,
    ChoiState,
    QuantumOperation,
    apply_via_choi,
    choi_from_operation,
    dephasing_operation,
    hadamard_operation,
    identity_operation,
    is_cptp,
    is_incoherent_kraus_operator,
    is_incoherent_operation,
    kraus_from_choi,
    matrix_elements,
    mix_operations,
    pauli_x_operation,
    pauli_z_operation,
    random_cptp,
    random_density_matrix,
    random_incoherent_cptp,
    random_unitary,
    unitary_from_choi,
)
from qopcoh.exceptions import (
    DimensionMismatchError,
    InvalidChoiError,
    InvalidKrausError,
    NotDensityMatrixError,
    NotUnitaryError,
    WeightError,
)
from qopcoh.linalg import kron, max_abs

IDENTITY_CHOI = np.array(
    [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]], dtype=complex
)
DEPHASING_CHOI = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)


class TestChoiFromOperation:
    def test_identity_channel(self):
        c = identity_operation(2).choi
        assert max_abs(c.matrix - IDENTITY_CHOI) <= 1e-12
        assert c.is_cptp

    def test_max_coherent_all_quarters(self):
        k = np.ones((2, 2), dtype=complex) / np.sqrt(2)
        c = QuantumOperation.from_kraus([k]).choi
        assert max_abs(c.matrix - 0.25 * np.ones((4, 4))) <= 1e-12

    def test_dephasing_channel(self):
        # two Kraus terms |0><0|, |1><1| applied to |phi><phi| by hand
        c = dephasing_operation(2).choi
        assert max_abs(c.matrix - DEPHASING_CHOI) <= 1e-12

    def test_trace_decreasing_kraus_rejected(self):
        half = QuantumOperation.from_kraus([0.5 * np.eye(2)])
        with pytest.raises(InvalidKrausError):
            choi_from_operation(half)


class TestApplyViaChoi:
    def test_identity(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        out = apply_via_choi(identity_operation(2).choi, rho)
        assert max_abs(out - rho) <= 1e-12

    def test_dephasing_kills_offdiagonals(self):
        rho = np.full((2, 2), 0.5, dtype=complex)
        out = apply_via_choi(dephasing_operation(2).choi, rho)
        assert max_abs(out - np.diag([0.5, 0.5])) <= 1e-12

    def test_pauli_x_flips(self):
        out = apply_via_choi(pauli_x_operation().choi, np.diag([1.0, 0.0]))
        assert max_abs(out - np.diag([0.0, 1.0])) <= 1e-12

    def test_round_trip_against_kraus_action(self):
        rng = np.random.default_rng(10)
        for d in (2, 3):
            for _ in range(100):
                op = random_cptp(d, int(rng.integers(1, 4)), rng)
                rho = random_density_matrix(d, rng)
                direct = op.apply(rho)
                via = apply_via_choi(op.choi, rho)
                assert max_abs(direct - via) <= 1e-12

    def test_rejects_bad_state(self):
        choi = identity_operation(2).choi
        with pytest.raises(NotDensityMatrixError):
            apply_via_choi(choi, np.diag([2.0, -1.0]))
        with pytest.raises(NotDensityMatrixError):
            apply_via_choi(choi, np.array([[0.5, 0.5], [-0.5, 0.5]]))
        with pytest.raises(DimensionMismatchError):
            apply_via_choi(choi, np.eye(3) / 3)
        for bad in (np.nan, np.inf):
            with pytest.raises(NotDensityMatrixError):
                apply_via_choi(choi, np.diag([bad, 0.5]))


class TestMatrixElements:
    def test_reproduces_choi(self):
        op = random_cptp(2, 2, 11)
        t = matrix_elements(op)
        c = op.choi.matrix
        for i in range(2):
            for j in range(2):
                for a in range(2):
                    for b in range(2):
                        assert abs(t[i, j, a, b] - 2 * c[i * 2 + a, j * 2 + b]) <= 1e-12

    def test_diagonal_elements_give_transition_probabilities(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            op = random_cptp(2, int(rng.integers(1, 4)), rng)
            t = matrix_elements(op)
            for i in range(2):
                ket = np.zeros((2, 2), dtype=complex)
                ket[i, i] = 1.0
                out = op.apply(ket)
                for a in range(2):
                    assert abs(t[i, i, a, a] - out[a, a]) <= 1e-12

    def test_output_marginal_formula(self):
        # tr_out(C) entry (i,j) is sum_a T[i,j,a,a] / d; delta_ij for CPTP
        rng = np.random.default_rng(13)
        for _ in range(20):
            op = random_cptp(3, int(rng.integers(1, 3)), rng)
            t = matrix_elements(op)
            marginal = op.choi.output_marginal
            for i in range(3):
                for j in range(3):
                    s = sum(t[i, j, a, a] for a in range(3)) / 3
                    assert abs(marginal[i, j] - s) <= 1e-12
                    assert abs(s - (1 / 3 if i == j else 0.0)) <= 1e-9


class TestPredicates:
    def test_identity_is_cptp(self):
        assert is_cptp(identity_operation(2).choi).ok

    def test_basis_projector_not_cptp(self):
        rep = is_cptp(ChoiState(np.diag([1.0, 0, 0, 0]), 2))
        assert not rep.ok
        assert rep.marginal_residual >= 0.4

    def test_stinespring_samples_pass_cptp(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            op = random_cptp(2, int(rng.integers(1, 4)), rng)
            assert is_cptp(op.choi).ok

    def test_dephasing_is_incoherent(self):
        assert is_incoherent_operation(dephasing_operation(2).choi).ok

    def test_hadamard_not_incoherent(self):
        rep = is_incoherent_operation(hadamard_operation().choi)
        assert not rep.ok
        assert abs(rep.max_offdiagonal - 0.25) <= 1e-12

    def test_max_coherent_not_incoherent(self):
        k = np.ones((2, 2), dtype=complex) / np.sqrt(2)
        rep = is_incoherent_operation(QuantumOperation.from_kraus([k]).choi)
        assert not rep.ok
        assert rep.max_offdiagonal >= 0.2

    def test_incoherence_invariant_under_kraus_shuffle(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            op = random_cptp(2, 3, rng)
            ks = list(op.kraus_operators)
            rng.shuffle(ks)
            shuffled = QuantumOperation.from_kraus(ks)
            assert (
                is_incoherent_operation(op.choi).ok
                == is_incoherent_operation(shuffled.choi).ok
            )

    def test_incoherent_kraus_operator(self):
        basis = np.zeros((4, 4), dtype=complex)
        basis[1, 1] = 1.0
        assert is_incoherent_kraus_operator(basis)
        perm = np.eye(4)[[2, 0, 3, 1]]
        assert is_incoherent_kraus_operator(perm)
        assert not is_incoherent_kraus_operator(kron(HADAMARD, np.eye(2)))


class TestRandomGenerators:
    def test_random_unitary_is_unitary(self):
        for seed in range(5):
            u = random_unitary(2, seed).unitary
            assert max_abs(u.conj().T @ u - np.eye(2)) <= 1e-10

    def test_random_cptp_is_cptp(self):
        assert is_cptp(random_cptp(2, 2, 3).choi).ok
        assert is_cptp(random_cptp(3, 2, 3).choi).ok

    def test_trivial_environment_gives_unitary_channel(self):
        op = random_cptp(2, 1, 5)
        u = unitary_from_choi(op.choi)
        assert max_abs(u.conj().T @ u - np.eye(2)) <= 1e-9

    def test_deterministic_under_seed(self):
        a = random_cptp(2, 2, 42).choi.matrix
        b = random_cptp(2, 2, 42).choi.matrix
        assert max_abs(a - b) == 0

    def test_incoherent_cptp_generator(self):
        for seed in range(10):
            op = random_incoherent_cptp(2, seed)
            assert is_cptp(op.choi).ok
            assert is_incoherent_operation(op.choi).ok


class TestRepresentations:
    def test_from_unitary_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            QuantumOperation.from_unitary(np.array([[1, 1], [0, 1]], dtype=complex))
        for bad in (np.inf, np.nan):
            with pytest.raises(NotUnitaryError):
                QuantumOperation.from_unitary(np.array([[bad, 0], [0, 1]], dtype=complex))

    def test_from_kraus_rejects_non_finite(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(InvalidKrausError):
                QuantumOperation.from_kraus([np.eye(2), np.diag([bad, 0.0])])

    def test_choi_state_validation(self):
        with pytest.raises(InvalidChoiError):
            ChoiState(np.diag([0.5, 0, 0, 0.4]), 2)  # trace
        with pytest.raises(InvalidChoiError):
            ChoiState(np.diag([1.5, 0, 0, -0.5]), 2)  # negativity
        bad = IDENTITY_CHOI.copy()
        bad[0, 1] = 1.0
        with pytest.raises(InvalidChoiError):
            ChoiState(bad, 2)  # hermiticity
        for entry in (np.nan, np.inf):
            bad = IDENTITY_CHOI.copy()
            bad[1, 1] = entry
            with pytest.raises(InvalidChoiError):
                ChoiState(bad, 2)  # finiteness

    def test_kraus_from_choi_round_trip(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            op = random_cptp(2, int(rng.integers(1, 4)), rng)
            rebuilt = QuantumOperation.from_kraus(kraus_from_choi(op.choi))
            rho = random_density_matrix(2, rng)
            assert max_abs(op.apply(rho) - rebuilt.apply(rho)) <= 1e-10

    def test_mix_operations_matches_dephasing(self):
        mixed = mix_operations([0.5, 0.5], [identity_operation(2), pauli_z_operation()])
        assert max_abs(mixed.choi.matrix - DEPHASING_CHOI) <= 1e-15

    def test_mix_operations_weight_validation(self):
        ops = [identity_operation(2), pauli_z_operation()]
        for weights in ([0.4, 0.4], [-0.5, 1.5], [np.nan, 1.0], [np.inf, -np.inf]):
            with pytest.raises(WeightError):
                mix_operations(weights, ops)

    def test_trace_preserving_flag(self):
        assert identity_operation(2).is_trace_preserving
        assert random_cptp(2, 3, 1).is_trace_preserving
        assert not QuantumOperation.from_kraus([0.5 * np.eye(2)]).is_trace_preserving

    def test_pauli_x_choi_support(self):
        c = pauli_x_operation().choi.matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[np.ix_([1, 2], [1, 2])] = 0.5
        assert max_abs(c - expected) <= 1e-12
