"""Matrix kernel tests: eigensolver, PSD roots, partial traces, the dimension rule, vectorization."""

import warnings

import numpy as np
import pytest

from qopcoh.channel import ChoiState, QuantumOperation, identity_operation, mix_operations, random_cptp
from qopcoh.coherence import Ensemble, uhlmann_fidelity
from qopcoh.superop import Superoperation, apply, classify, compose, kraus_outcomes, phase_out
from qopcoh.exceptions import (
    DimensionMismatchError,
    InvalidChoiError,
    InvalidKrausError,
    NotDensityMatrixError,
    NotFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    NotUnitaryError,
    WeightError,
)
from qopcoh.linalg import (
    MAX_ENTRY,
    cholesky_lo,
    dagger,
    devectorize,
    dimension,
    eig_hermitian,
    inv,
    max_abs,
    partial_trace_in,
    partial_trace_out,
    require_density,
    require_finite,
    require_hermitian,
    require_unitary,
    require_weights,
    sqrt_psd,
    vectorize,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_psd(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T


class TestEigHermitian:
    def test_identity(self):
        w, _ = eig_hermitian(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])

    def test_already_diagonal(self):
        w, _ = eig_hermitian(np.diag([3.0, 1.0]))
        assert np.allclose(w, [3.0, 1.0])

    def test_pauli_x(self):
        # characteristic polynomial lambda^2 - 1 = 0 by hand
        w, _ = eig_hermitian(PAULI_X)
        assert np.allclose(w, [1.0, -1.0], atol=1e-12)

    def test_sorted_descending(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w, _ = eig_hermitian(random_hermitian(4, rng))
            assert np.all(np.diff(w) <= 0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            for _ in range(100):
                a = random_hermitian(n, rng)
                w, v = eig_hermitian(a)
                assert max_abs(v @ np.diag(w) @ v.conj().T - a) <= 1e-10
                assert max_abs(v.conj().T @ v - np.eye(n)) <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            eig_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
        for bad in (np.nan, np.inf):
            with pytest.raises(NotHermitianError):
                eig_hermitian(np.array([[bad, 0], [0, 1]], dtype=complex))


class TestSqrtPsd:
    def test_identity(self):
        assert max_abs(sqrt_psd(np.eye(3)) - np.eye(3)) <= 1e-12

    def test_diagonal(self):
        assert max_abs(sqrt_psd(np.diag([4.0, 9.0])) - np.diag([2.0, 3.0])) <= 1e-12

    def test_projector_is_fixed_point(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        assert max_abs(sqrt_psd(p) - p) <= 1e-12

    def test_square_recovers_input(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            a = random_psd(n, rng)
            s = sqrt_psd(a)
            assert max_abs(s @ s - a) <= 1e-9 * max(1.0, max_abs(a))

    def test_clamps_tiny_negative(self):
        a = np.diag([1.0, -1e-10])
        s = sqrt_psd(a)
        assert max_abs(s - np.diag([1.0, 0.0])) <= 1e-5

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            sqrt_psd(np.diag([1.0, -1e-3]))
        with pytest.raises(NotPSDError):
            sqrt_psd(-np.eye(2) + 0.1 * random_psd(2, np.random.default_rng(3)))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NotHermitianError):
                sqrt_psd(np.diag([1.0, bad]))


class TestPartialTraces:
    def test_max_entangled_marginals(self):
        phi = np.zeros(4, dtype=complex)
        phi[[0, 3]] = 1 / np.sqrt(2)
        p = np.outer(phi, phi.conj())
        assert max_abs(partial_trace_out(p) - np.eye(2) / 2) <= 1e-12
        assert max_abs(partial_trace_in(p) - np.eye(2) / 2) <= 1e-12

    def test_basis_projector(self):
        a = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        assert max_abs(partial_trace_out(a) - np.diag([1.0, 0.0])) <= 1e-12
        assert max_abs(partial_trace_in(a) - np.diag([1.0, 0.0])) <= 1e-12

    def test_product_rule(self):
        rng = np.random.default_rng(4)
        for d in (2, 3):
            a = random_psd(d, rng)
            b = random_psd(d, rng)
            t = np.kron(a, b)
            assert max_abs(partial_trace_out(t) - a * np.trace(b)) <= 1e-10
            assert max_abs(partial_trace_in(t) - b * np.trace(a)) <= 1e-10

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            a = random_hermitian(d * d, rng)
            assert abs(np.trace(partial_trace_out(a)) - np.trace(a)) <= 1e-10
            assert abs(np.trace(partial_trace_in(a)) - np.trace(a)) <= 1e-10

    def test_identity_channel_inversion_carries_1_over_d(self):
        # (rho^T (x) I) C_id traced over the input factor returns rho / d
        rho = np.diag([0.3, 0.7]).astype(complex)
        phi = np.zeros(4, dtype=complex)
        phi[[0, 3]] = 1 / np.sqrt(2)
        c_id = np.outer(phi, phi.conj())
        lifted = np.kron(rho.T, np.eye(2)) @ c_id
        assert max_abs(partial_trace_in(lifted) - rho / 2) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace_out(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            partial_trace_in(np.eye(8))


class TestDimension:
    def test_reads_d_off_a_size(self):
        for d in (2, 3, 7):
            assert [dimension(d**power, power, "array") for power in (1, 2, 4)] == [d, d, d]

    @pytest.mark.parametrize("size,power", [(0, 1), (1, 1), (1, 2), (3, 2), (8, 2), (1, 4), (15, 4), (17, 4)])
    def test_rejects_sizes_with_no_d_of_at_least_2(self, size, power):
        with pytest.raises(DimensionMismatchError, match="at least 2"):
            dimension(size, power, "array")

    def test_constructors_reject_d_1(self):
        for admit in (
            lambda: ChoiState(np.eye(1)),
            lambda: QuantumOperation.from_unitary(np.eye(1)),
            lambda: Superoperation.from_matrix(np.eye(1)),
        ):
            with pytest.raises(DimensionMismatchError, match="at least 2"):
                admit()

    def test_from_choi_checks_a_stated_d(self):
        # the stated d was once ignored when the argument was already a ChoiState
        for choi in (ChoiState(np.eye(4) / 4), np.eye(4) / 4):
            assert QuantumOperation.from_choi(choi, 2).d == 2
            with pytest.raises(DimensionMismatchError, match="d = 3"):
                QuantumOperation.from_choi(choi, 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: Superoperation.from_sandwich(identity_operation(2), identity_operation(3)),
            lambda: compose(phase_out(2), phase_out(3)),
            lambda: apply(phase_out(3), identity_operation(2)),
            lambda: kraus_outcomes(phase_out(3), identity_operation(2)),
            lambda: uhlmann_fidelity(np.eye(2) / 2, np.eye(3) / 3),
            lambda: uhlmann_fidelity(identity_operation(2).choi.matrix, identity_operation(3).choi.matrix),
            lambda: identity_operation(2).apply(np.eye(3) / 3),
            lambda: random_cptp(2, 2, 1).apply(np.eye(3) / 3),
            lambda: QuantumOperation.from_choi(np.eye(4) / 4).apply(np.eye(3) / 3),
        ],
        ids=[
            "sandwich-halves",
            "compose",
            "apply",
            "kraus-outcomes",
            "uhlmann-fidelity",
            "operation-fidelity",
            "apply-unitary",
            "apply-kraus",
            "apply-choi",
        ],
    )
    def test_operands_of_different_d_are_rejected(self, call):
        with pytest.raises(DimensionMismatchError):
            call()


class TestVectorization:
    def test_vec_identity(self):
        assert np.allclose(vectorize(np.eye(2)), [1, 0, 0, 1])

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert max_abs(devectorize(vectorize(m), 3) - m) == 0

    def test_column_stacking_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert max_abs(np.kron(b.T, a) @ vectorize(x) - vectorize(a @ x @ b)) <= 1e-12

    def test_kraus_conjugation_identity(self):
        rng = np.random.default_rng(8)
        k = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = np.kron(k.conj(), k) @ vectorize(x)
        rhs = vectorize(k @ x @ k.conj().T)
        assert max_abs(lhs - rhs) <= 1e-12

    def test_devectorize_length_check(self):
        with pytest.raises(DimensionMismatchError):
            devectorize(np.zeros(5), 2)
        with pytest.raises(DimensionMismatchError):
            devectorize(np.zeros((2, 2)), 2)  # four entries, but the vector is the last axis, of length 2

    def test_stack_equals_per_matrix_loop(self):
        rng = np.random.default_rng(9)
        for shape in ((5, 3, 3), (2, 4, 2, 2)):
            stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            vecs = vectorize(stack)
            assert vecs.shape == shape[:-2] + (shape[-1] ** 2,)
            for index in np.ndindex(*shape[:-2]):
                assert np.array_equal(vecs[index], vectorize(stack[index]))
            assert np.array_equal(devectorize(vecs, shape[-1]), stack)

    def test_vectorize_rejects_what_is_not_a_square_matrix(self):
        for bad, error in (
            (np.zeros(4), DimensionMismatchError),
            (np.zeros((2, 3)), NotSquareError),
            (np.zeros((5, 2, 3)), NotSquareError),
            (np.zeros((0, 0)), DimensionMismatchError),
        ):
            with pytest.raises(error):
                vectorize(bad)


NON_FINITE = (np.nan, np.inf, -np.inf)


def _positive_definite_stack(lanes, r, rng):
    g = rng.standard_normal((lanes, r + 2, r)) + 1j * rng.standard_normal((lanes, r + 2, r))
    return dagger(g) @ g


class TestUnwrappedKernels:
    """``cholesky_lo`` and ``inv`` are what np.linalg.cholesky and np.linalg.inv compute, bit for bit."""

    @pytest.mark.parametrize("lanes", [1, 6, 32])
    def test_bit_equal_to_the_public_functions(self, lanes):
        rng = np.random.default_rng(50)
        for r in range(1, 10):
            s = _positive_definite_stack(lanes, r, rng)
            lower = cholesky_lo(s)
            assert lower.dtype == complex and lower.tobytes() == np.linalg.cholesky(s).tobytes()
            # the retraction inverts the factor's adjoint; the Gram matrices themselves too
            for m in (dagger(lower), s):
                assert inv(m).tobytes() == np.linalg.inv(m).tobytes()

    @pytest.mark.parametrize("lanes", [1, 6, 32])
    def test_a_rank_deficient_member_comes_back_nan_alone(self, lanes):
        rng = np.random.default_rng(51)
        for r in range(1, 10):
            s = _positive_definite_stack(lanes, r, rng)
            bad, column = int(rng.integers(lanes)), int(rng.integers(r))
            s[bad, column, :] = 0.0
            s[bad, :, column] = 0.0
            rest = np.arange(lanes) != bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(invalid="ignore"):
                    outputs = cholesky_lo(s), inv(s)
            for out, public in zip(outputs, (np.linalg.cholesky, np.linalg.inv)):
                assert np.isnan(out[bad]).all()
                assert lanes == 1 or out[rest].tobytes() == public(s[rest]).tobytes()
                with pytest.raises(np.linalg.LinAlgError):
                    public(s)
            # outside errstate the failure warns, so it cannot pass unnoticed
            with pytest.warns(RuntimeWarning, match="invalid value"):
                cholesky_lo(s)


class TestAdmission:
    """Every check rejects NaN and Inf, whatever the residual would read."""

    def test_finite(self):
        assert max_abs(require_finite(np.eye(2)) - np.eye(2)) == 0
        for bad in NON_FINITE:
            with pytest.raises(NotFiniteError):
                require_finite(np.array([[1.0, bad], [0.0, 1.0]]))
            with pytest.raises(ValueError):
                require_finite(np.array([[bad]]), error=ValueError)
        # magnitude is admitted up to MAX_ENTRY, whose square leaves room for the library's products
        require_finite(np.array([[MAX_ENTRY, -MAX_ENTRY], [1j * MAX_ENTRY, 0.0]]))
        for big in (np.nextafter(MAX_ENTRY, np.inf), 1e200, 1.7e308 + 1.7e308j):
            with pytest.raises(NotFiniteError, match="above 2\\^250"):
                require_finite(np.array([[1.0, big]]))

    def test_hermitian(self):
        require_hermitian(PAULI_X)
        with pytest.raises(NotHermitianError):
            require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
        for bad in NON_FINITE:
            with pytest.raises(NotHermitianError):
                require_hermitian(np.diag([bad, 1.0]))

    def test_density(self):
        h, eig = require_density(np.diag([0.25, 0.75]))
        assert max_abs(h - np.diag([0.25, 0.75])) == 0
        assert np.allclose(eig.eigenvalues, [0.75, 0.25])
        for bad in (np.eye(2), np.diag([1.5, -0.5]), np.array([[0.5, 0.5], [-0.5, 0.5]])):
            with pytest.raises(NotDensityMatrixError):
                require_density(bad)
        for bad in NON_FINITE:
            with pytest.raises(NotDensityMatrixError):
                require_density(np.diag([bad, 0.5]))

    def test_unitary(self):
        require_unitary(PAULI_X, dim=2)
        with pytest.raises(NotUnitaryError):
            require_unitary(np.eye(3), dim=2)
        with pytest.raises(NotUnitaryError):
            require_unitary(np.array([[1, 1], [0, 1]], dtype=complex))
        for bad in NON_FINITE:
            with pytest.raises(NotUnitaryError):
                require_unitary(np.array([[bad, 0], [0, 1]], dtype=complex))

    def test_weights(self):
        assert list(require_weights([0.25, 0.75])) == [0.25, 0.75]
        for bad in ([], [0.4, 0.4], [-0.5, 1.5], [np.nan, 1.0], [np.inf, -np.inf], [1.0, np.nan], [1.7e308] * 2):
            with pytest.raises(WeightError):
                require_weights(bad)


def _choi_with(entries: dict) -> np.ndarray:
    m = np.eye(4) / 4
    for index, value in entries.items():
        m[index] = value
    return m


def _sandwich_half():
    return QuantumOperation.from_kraus([np.diag([1e200, 0.0]), np.diag([0.0, 1e200])])


# Each entry point rejects a finite entry past MAX_ENTRY with its own error type before any
# arithmetic, so no product overflows and numpy never warns.
OVERSIZED_INPUTS = {
    "compose of two 1e200 matrices": (
        lambda: compose(*(Superoperation.from_matrix(1e200 * np.eye(16)) for _ in range(2))),
        NotFiniteError,
    ),
    "kraus_outcomes of a 1e200 Kraus-on-Choi set": (
        lambda: kraus_outcomes(Superoperation.from_kraus_on_choi([1e200 * np.eye(4)]), identity_operation(2)),
        InvalidKrausError,
    ),
    "1e200 ensemble row": (lambda: Ensemble([[1e200, 0, 0, 0]]), WeightError),
    "Choi state with the anti-Hermitian pair 1.7e308": (
        lambda: ChoiState(_choi_with({(0, 1): 1.7e308, (1, 0): -1.7e308})),
        InvalidChoiError,
    ),
    "Choi state with 1.7e308 on the diagonal": (lambda: ChoiState(_choi_with({(0, 0): 1.7e308})), InvalidChoiError),
    "unitary with a 1.7e308+1.7e308j entry": (
        lambda: QuantumOperation.from_unitary(np.diag([1.7e308 + 1.7e308j, 1.0])),
        NotUnitaryError,
    ),
    "classify of a 1e200 Kraus-on-Choi set": (
        lambda: classify(Superoperation.from_kraus_on_choi([1e200 * np.eye(4)])),
        InvalidKrausError,
    ),
    "classify of a 1e200 sandwich": (
        lambda: classify(Superoperation.from_sandwich(_sandwich_half(), _sandwich_half())),
        InvalidKrausError,
    ),
    "mixture with weights 1.7e308": (
        lambda: mix_operations([1.7e308, 1.7e308], [identity_operation(2)] * 2),
        WeightError,
    ),
}


@pytest.mark.parametrize("build, error", OVERSIZED_INPUTS.values(), ids=OVERSIZED_INPUTS.keys())
def test_oversized_entries_are_rejected_without_a_warning(build, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            build()
