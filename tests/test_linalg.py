"""Matrix kernel tests: eigensolver, PSD roots, partial traces, vectorization."""

import numpy as np
import pytest

from qopcoh.exceptions import (
    DimensionMismatchError,
    InvalidToleranceError,
    NotDensityMatrixError,
    NotFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    NotUnitaryError,
    WeightError,
)
from qopcoh.linalg import (
    devectorize,
    eig_hermitian,
    kron,
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
from qopcoh.tolerances import DEFAULT_ADMISSION_ATOL, admission_atol

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
        assert max_abs(partial_trace_out(p, 2) - np.eye(2) / 2) <= 1e-12
        assert max_abs(partial_trace_in(p, 2) - np.eye(2) / 2) <= 1e-12

    def test_basis_projector(self):
        a = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        assert max_abs(partial_trace_out(a, 2) - np.diag([1.0, 0.0])) <= 1e-12
        assert max_abs(partial_trace_in(a, 2) - np.diag([1.0, 0.0])) <= 1e-12

    def test_product_rule(self):
        rng = np.random.default_rng(4)
        for d in (2, 3):
            a = random_psd(d, rng)
            b = random_psd(d, rng)
            t = kron(a, b)
            assert max_abs(partial_trace_out(t, d) - a * np.trace(b)) <= 1e-10
            assert max_abs(partial_trace_in(t, d) - b * np.trace(a)) <= 1e-10

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            a = random_hermitian(d * d, rng)
            assert abs(np.trace(partial_trace_out(a, d)) - np.trace(a)) <= 1e-10
            assert abs(np.trace(partial_trace_in(a, d)) - np.trace(a)) <= 1e-10

    def test_identity_channel_inversion_carries_1_over_d(self):
        # (rho^T (x) I) C_id traced over the input factor returns rho / d
        rho = np.diag([0.3, 0.7]).astype(complex)
        phi = np.zeros(4, dtype=complex)
        phi[[0, 3]] = 1 / np.sqrt(2)
        c_id = np.outer(phi, phi.conj())
        lifted = kron(rho.T, np.eye(2)) @ c_id
        assert max_abs(partial_trace_in(lifted, 2) - rho / 2) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace_out(np.eye(3), 2)
        with pytest.raises(DimensionMismatchError):
            partial_trace_in(np.eye(8), 2)


class TestKron:
    def test_identity(self):
        assert max_abs(kron(np.eye(2), np.eye(2)) - np.eye(4)) == 0

    def test_diagonal(self):
        assert max_abs(kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) - np.diag([1, 0, 0, 0])) == 0

    def test_block_placement(self):
        t = kron(np.diag([1.0, 0.0]), PAULI_X)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = PAULI_X
        assert max_abs(t - expected) == 0


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
            assert max_abs(kron(b.T, a) @ vectorize(x) - vectorize(a @ x @ b)) <= 1e-12

    def test_kraus_conjugation_identity(self):
        rng = np.random.default_rng(8)
        k = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = kron(k.conj(), k) @ vectorize(x)
        rhs = vectorize(k @ x @ k.conj().T)
        assert max_abs(lhs - rhs) <= 1e-12

    def test_devectorize_length_check(self):
        with pytest.raises(DimensionMismatchError):
            devectorize(np.zeros(5), 2)


NON_FINITE = (np.nan, np.inf, -np.inf)


class TestAdmission:
    """Every check rejects NaN and Inf, whatever the residual would read."""

    def test_finite(self):
        assert max_abs(require_finite(np.eye(2)) - np.eye(2)) == 0
        for bad in NON_FINITE:
            with pytest.raises(NotFiniteError):
                require_finite(np.array([[1.0, bad], [0.0, 1.0]]))
            with pytest.raises(ValueError):
                require_finite(np.array([[bad]]), error=ValueError)

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
        for bad in ([], [0.4, 0.4], [-0.5, 1.5], [np.nan, 1.0], [np.inf, -np.inf], [1.0, np.nan]):
            with pytest.raises(WeightError):
                require_weights(bad)


class TestAdmissionTolerance:
    def test_default_and_override(self, monkeypatch):
        monkeypatch.delenv("QOPCOH_TOL", raising=False)
        assert admission_atol() == DEFAULT_ADMISSION_ATOL
        monkeypatch.setenv("QOPCOH_TOL", "1e-6")
        assert admission_atol() == 1e-6

    @pytest.mark.parametrize("raw", ["abc", "nan", "inf", "-inf", "0", "-1", ""])
    def test_rejects_non_finite_or_non_positive(self, monkeypatch, raw):
        monkeypatch.setenv("QOPCOH_TOL", raw)
        with pytest.raises(InvalidToleranceError):
            admission_atol()
