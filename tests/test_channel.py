"""Choi construction, inversion, predicates, and random generators."""

import math
import warnings

import numpy as np
import pytest

from qopcoh.channel import (
    HADAMARD,
    PAULI_X,
    ChoiState,
    QuantumOperation,
    apply_via_choi,
    choi_from_operation,
    dephasing_operation,
    ginibre,
    haar_unitary,
    hadamard_operation,
    identity_operation,
    is_cptp,
    is_incoherent_operation,
    kraus_from_choi,
    mix_operations,
    pauli_x_operation,
    pauli_z_operation,
    random_cptp,
    random_density_matrix,
    random_incoherent_cptp,
    random_unitary,
    unitary_from_choi,
)
from qopcoh.coherence import max_coherent_operation, mf_single_qubit_unitary
from qopcoh.exceptions import (
    DimensionMismatchError,
    InvalidChoiError,
    InvalidKrausError,
    NotDensityMatrixError,
    NotUnitaryError,
    QopcohError,
    WeightError,
)
from qopcoh.linalg import dagger, max_abs, partial_trace_out, require_density
from qopcoh.superop import Superoperation

IDENTITY_CHOI = np.array(
    [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]], dtype=complex
)
DEPHASING_CHOI = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)


def kron_reference_choi(kraus, d):
    """sum_n (I (x) K_n)|phi><phi|(I (x) K_n)+, one numpy.kron per Kraus operator."""
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    c = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus:
        v = np.kron(np.eye(d), k) @ phi
        c += np.outer(v, v.conj())
    return c


class TestChoiFromOperation:
    def test_matches_kron_reference(self):
        rng = np.random.default_rng(36)
        for d in (2, 3, 4):
            ops = [random_cptp(d, count, rng) for count in (1, 2, d * d)] + [random_unitary(d, rng)]
            for op in ops:
                c = choi_from_operation(op).matrix
                assert max_abs(c - kron_reference_choi(op.kraus_operators, d)) <= 1e-14

    def test_identity_channel(self):
        c = identity_operation(2).choi
        assert max_abs(c.matrix - IDENTITY_CHOI) <= 1e-12
        assert is_cptp(c).ok

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
        # one wording of a wrong state shape, whatever the operation's kind
        for op in (QuantumOperation.from_unitary(np.eye(2)), QuantumOperation.from_choi(np.eye(4) / 4)):
            with pytest.raises(DimensionMismatchError, match=r"^state shape \(3, 3\) does not match d=2$"):
                op.apply(np.eye(3) / 3)
        for bad in (np.nan, np.inf):
            with pytest.raises(NotDensityMatrixError):
                apply_via_choi(choi, np.diag([bad, 0.5]))
        # the unitary and Kraus paths of apply admit the state as the Choi path does
        ops = (identity_operation(2), dephasing_operation(2), QuantumOperation.from_choi(choi))
        for op in ops:
            for state in (np.diag([2.0, -1.0]), np.diag([np.nan, 0.5])):
                with pytest.raises(NotDensityMatrixError):
                    op.apply(state)


class TestMatrixElements:
    def test_reproduces_choi(self):
        op = random_cptp(2, 2, 11)
        c = op.choi.matrix
        t = 2 * c.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)  # T[i,j,a,b] = d <ia|C|jb>
        for i in range(2):
            for j in range(2):
                for a in range(2):
                    for b in range(2):
                        assert abs(t[i, j, a, b] - 2 * c[i * 2 + a, j * 2 + b]) <= 1e-12

    def test_diagonal_elements_give_transition_probabilities(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            op = random_cptp(2, int(rng.integers(1, 4)), rng)
            t = 2 * op.choi.matrix.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
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
            t = 3 * op.choi.matrix.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3)
            marginal = partial_trace_out(op.choi.matrix)
            for i in range(3):
                for j in range(3):
                    s = sum(t[i, j, a, a] for a in range(3)) / 3
                    assert abs(marginal[i, j] - s) <= 1e-12
                    assert abs(s - (1 / 3 if i == j else 0.0)) <= 1e-9


class TestPredicates:
    def test_identity_is_cptp(self):
        assert is_cptp(identity_operation(2).choi).ok

    def test_basis_projector_not_cptp(self):
        rep = is_cptp(ChoiState(np.diag([1.0, 0, 0, 0])))
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

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
    def test_ginibre_draws_the_two_call_stream(self, n):
        # verify reports need not show a shifted draw, so the stream is pinned here: each member's real
        # part then its imaginary part, and the generator left where two calls per member leave it
        reference, one, stacked = (np.random.default_rng(70 + n) for _ in range(3))
        pairs = [(reference.standard_normal((n, n)), reference.standard_normal((n, n))) for _ in range(6)]
        expected = [(re + 1j * im) / np.sqrt(2) for re, im in pairs]
        drawn = [ginibre(n, one) for _ in range(6)]
        assert [z.tobytes() for z in drawn] == [z.tobytes() for z in expected]
        grid = ginibre(n, stacked, (2, 3))
        assert grid.shape == (2, 3, n, n) and grid.tobytes() == np.stack(expected).tobytes()
        assert reference.integers(2**62) == one.integers(2**62) == stacked.integers(2**62)


class TestRepresentations:
    def test_from_unitary_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            QuantumOperation.from_unitary(np.array([[1, 1], [0, 1]], dtype=complex))
        for bad in (np.inf, np.nan):
            with pytest.raises(NotUnitaryError):
                QuantumOperation.from_unitary(np.array([[bad, 0], [0, 1]], dtype=complex))
        # a finite entry past 2^250 is rejected at admission, before any product can overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitaryError):
                QuantumOperation.from_unitary(np.diag([1e200, 1]))

    def test_from_kraus_rejects_non_finite(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(InvalidKrausError):
                QuantumOperation.from_kraus([np.eye(2), np.diag([bad, 0.0])])
        # so is a finite Kraus entry past 2^250, and one inside it whose Choi matrix goes past it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidKrausError):
                QuantumOperation.from_kraus([np.diag([1e200, 1])]).choi
            with pytest.raises(InvalidKrausError):
                QuantumOperation.from_kraus([np.diag([1e100, 1])]).choi

    def test_overflow_guards_leave_numpy_error_state_as_it_was(self):
        # the library never touches numpy's error state: oversized entries are rejected before any product
        before = np.geterr()
        QuantumOperation.from_kraus([np.eye(2)]).choi
        QuantumOperation.from_unitary(np.eye(2)).choi
        with pytest.raises(InvalidKrausError):
            QuantumOperation.from_kraus([np.diag([1e200, 1])]).choi
        assert np.geterr() == before
        with np.errstate(over="raise"):
            QuantumOperation.from_kraus([np.eye(2)]).choi
            assert np.geterr()["over"] == "raise"

    def test_choi_state_validation(self):
        with pytest.raises(InvalidChoiError):
            ChoiState(np.diag([0.5, 0, 0, 0.4]))  # trace
        with pytest.raises(InvalidChoiError):
            ChoiState(np.diag([1.5, 0, 0, -0.5]))  # negativity
        bad = IDENTITY_CHOI.copy()
        bad[0, 1] = 1.0
        with pytest.raises(InvalidChoiError):
            ChoiState(bad)  # hermiticity
        for entry in (np.nan, np.inf):
            bad = IDENTITY_CHOI.copy()
            bad[1, 1] = entry
            with pytest.raises(InvalidChoiError):
                ChoiState(bad)  # finiteness

    def test_empty_matrices_are_rejected(self):
        # a 0x0 matrix is no operation: each entry point rejects it with its own error type
        empty = np.zeros((0, 0))
        admissions = (
            lambda: ChoiState(empty),
            lambda: require_density(empty),
            lambda: QuantumOperation.from_unitary(empty),
            lambda: QuantumOperation.from_kraus([empty]),
            lambda: Superoperation.from_matrix(empty),
        )
        for admit in admissions:
            with pytest.raises(QopcohError):
                admit()

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
        rng = np.random.default_rng(41)
        for d in (2, 3):
            ops = [random_cptp(d, 2, rng) for _ in range(3)]
            p = rng.dirichlet(np.ones(3))
            expected = ChoiState(sum(w * op.choi.matrix for w, op in zip(p, ops))).matrix
            assert np.array_equal(mix_operations(p, ops).choi.matrix, expected)

    def test_mix_operations_weight_validation(self):
        ops = [identity_operation(2), pauli_z_operation()]
        for weights in ([0.4, 0.4], [-0.5, 1.5], [np.nan, 1.0], [np.inf, -np.inf]):
            with pytest.raises(WeightError):
                mix_operations(weights, ops)
        with pytest.raises(DimensionMismatchError):
            mix_operations([0.5, 0.5], [identity_operation(2), identity_operation(3)])

    def test_trace_preserving_flag(self):
        assert is_cptp(identity_operation(2).choi).ok
        assert is_cptp(random_cptp(2, 3, 1).choi).ok
        with pytest.raises(InvalidKrausError):  # Choi trace 0.25: no Choi state, so no verdict
            QuantumOperation.from_kraus([0.5 * np.eye(2)]).choi

    def test_pauli_x_choi_support(self):
        c = pauli_x_operation().choi.matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[np.ix_([1, 2], [1, 2])] = 0.5
        assert max_abs(c - expected) <= 1e-12


def three_kinds(d, rng):
    """A unitary, a Kraus and a Choi operation of dimension d."""
    channel = random_cptp(d, int(rng.integers(1, 4)), rng)
    return [random_unitary(d, rng), channel, QuantumOperation.from_choi(channel.choi.matrix)]


class TestKrausStack:
    def test_kraus_operators_is_a_read_only_stack(self):
        rng = np.random.default_rng(50)
        for d in (2, 3):
            for op in three_kinds(d, rng):
                ks = op.kraus_operators
                assert isinstance(ks, np.ndarray)
                assert ks.ndim == 3 and ks.shape[1:] == (d, d)
                assert len(ks) == len(list(ks)) and np.array_equal(list(ks)[-1], ks[-1])
                with pytest.raises(ValueError):
                    ks[0][0, 0] = 1.0
                assert op.kraus_operators is ks

    def test_unitary_is_the_one_operator_of_its_stack(self):
        u = random_unitary(3, 51)
        assert u.kraus_operators.shape == (1, 3, 3)
        assert np.array_equal(u.unitary, u.kraus_operators[0])
        with pytest.raises(ValueError):
            u.unitary[0, 0] = 0.0
        for op in (dephasing_operation(2), QuantumOperation.from_choi(u.choi)):
            with pytest.raises(NotUnitaryError):
                op.unitary

    def test_from_kraus_does_not_alias_its_input(self):
        k = np.eye(2, dtype=complex)
        op = QuantumOperation.from_kraus([k])
        k[0, 1] = 5.0
        assert np.array_equal(op.kraus_operators[0], np.eye(2))
        assert max_abs(op.choi.matrix - IDENTITY_CHOI) <= 1e-15
        stack = np.array([np.eye(2), np.diag([1.0, -1.0])], dtype=complex) / np.sqrt(2)
        op = QuantumOperation.from_kraus(stack)
        stack[1] = 0.0
        assert is_cptp(op.choi).ok
        assert max_abs(op.choi.matrix - DEPHASING_CHOI) <= 1e-15

    def test_admitted_arrays_are_read_only(self):
        op = random_cptp(2, 2, 1)
        c = QuantumOperation.from_choi(op.choi.matrix)
        # the held spectrum and everything derived from it is shared by later calls
        for held in (c.choi.root, c.choi.pure_vector, *c.choi._eig, c.kraus_operators[0], kraus_from_choi(c.choi)):
            with pytest.raises(ValueError):
                held[0, ...] += 0.5

    def test_batched_consumers_equal_reference_loops(self):
        for d in (2, 3, 4):
            rng = np.random.default_rng(52 + d)
            for _ in range(5):
                rho = random_density_matrix(d, rng)
                for op in three_kinds(d, rng) + [random_incoherent_cptp(d, rng), dephasing_operation(d)]:
                    ks = list(op.kraus_operators)
                    w, v = op.choi.support()
                    derived = [np.sqrt(d * lam) * vec.reshape(d, d).T for lam, vec in zip(w, v.T)]
                    assert np.array_equal(kraus_from_choi(op.choi), np.array(derived))
                    if op.kind == "choi":
                        continue
                    assert np.array_equal(op.apply(rho), sum(k @ rho @ dagger(k) for k in ks))
                    rows = np.array([k.T.reshape(-1) for k in ks]) / np.sqrt(d)
                    assert np.array_equal(op.choi.matrix, ChoiState(rows.T @ rows.conj()).matrix)

    def test_generators_match_per_operator_construction(self):
        for d in (2, 3):
            eye = np.eye(d, dtype=complex)
            deph = [np.outer(eye[i], eye[i]) for i in range(d)]
            assert np.array_equal(dephasing_operation(d).kraus_operators, np.array(deph))
            rng = np.random.default_rng(56)
            big = random_unitary(3 * d, rng).unitary
            op = random_cptp(d, 3, np.random.default_rng(56))
            assert np.array_equal(op.kraus_operators, np.array([big[e * d : (e + 1) * d, :d] for e in range(3)]))
            t = np.random.default_rng(57).uniform(0.05, 1.0, size=(d, d))
            t /= t.sum(axis=0, keepdims=True)
            inc = [np.sqrt(t[a, i]) * np.outer(eye[a], eye[i]) for i in range(d) for a in range(d)]
            assert np.array_equal(random_incoherent_cptp(d, 57).kraus_operators, np.array(inc))


def test_conversions_equal_their_former_spellings():
    """Every Kraus<->Choi-row conversion, now spelled through vectorize/devectorize, is bit-equal
    to the hand-written transposes it replaced, kept here as the independent reference."""
    for d in (2, 3, 4):
        rng = np.random.default_rng(60 + d)
        for _ in range(5):
            for op in three_kinds(d, rng) + [random_incoherent_cptp(d, rng)]:
                ks = op.kraus_operators
                v = ks.transpose(0, 2, 1).reshape(-1, d * d) / np.sqrt(d)
                if op.kind != "choi":
                    assert np.array_equal(choi_from_operation(op).matrix, ChoiState(v.T @ v.conj()).matrix)
                w, e = op.choi.support()
                former = np.sqrt(d * w)[:, None, None] * e.T.reshape(-1, d, d).transpose(0, 2, 1)
                assert np.array_equal(kraus_from_choi(op.choi), former)
            choi = random_unitary(d, rng).choi
            former = np.sqrt(d) * choi.pure_vector.reshape(d, d).T
            assert np.array_equal(unitary_from_choi(choi), former)
    rng = np.random.default_rng(64)
    for shape in ((4,), (2, 2)):
        th = rng.uniform(-np.pi, np.pi, size=shape)
        former = np.exp(1j * th.reshape(2, 2).T) / np.sqrt(2.0)
        assert np.array_equal(max_coherent_operation(th).kraus_operators[0], former)
    for m in [np.eye(2), PAULI_X, HADAMARD] + [haar_unitary(2, rng) for _ in range(2000)]:
        am2, bm2 = abs(m[0, 0]) ** 2, abs(m[0, 1]) ** 2
        value = min(math.sqrt(max(1.0 - am2 / 2.0, 0.0)), math.sqrt(max(1.0 - bm2 / 2.0, 0.0)))
        diag = np.array([abs(m[0, 0]) ** 2, abs(m[1, 0]) ** 2, abs(m[0, 1]) ** 2, abs(m[1, 1]) ** 2]) / 2
        result = mf_single_qubit_unitary(m)
        assert result.value == value
        assert result.witness_index == divmod(int(np.nonzero(diag >= diag.max() - 1e-12)[0][0]), 2)
