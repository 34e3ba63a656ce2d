import numpy as np
import numpy.testing as npt
import pytest

from trotteropt.linalg import expm_scaled_hermitian, matrix_power, spectral_norm

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_complex(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestExpm:
    def test_diagonal_exponent(self):
        theta = 0.37
        npt.assert_allclose(
            expm_scaled_hermitian(Z, 1j * theta),
            np.diag([np.exp(1j * theta), np.exp(-1j * theta)]),
            atol=1e-15,
        )

    def test_zero_exponent(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 8)
        h = a + a.conj().T
        npt.assert_allclose(expm_scaled_hermitian(h, 0.0), np.eye(8), atol=1e-14)

    def test_ix_rotation(self):
        # exp(i theta X) = cos(theta) I + i sin(theta) X; theta = pi/2 gives iX.
        npt.assert_allclose(expm_scaled_hermitian(X, 1j * np.pi / 2), 1j * X, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 8, 32])
    def test_unitary_for_imaginary_scale(self, dim):
        rng = np.random.default_rng(dim)
        a = random_complex(rng, dim)
        h = a + a.conj().T
        u = expm_scaled_hermitian(h, -1.7j)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) <= 1e-9

    def test_exponent_addition(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, 6)
        h = a + a.conj().T
        lhs = expm_scaled_hermitian(h, 0.3j) @ expm_scaled_hermitian(h, -1.1j)
        rhs = expm_scaled_hermitian(h, -0.8j)
        assert spectral_norm(lhs - rhs) <= 1e-9

    def test_noncommuting_generators_do_not_factor(self):
        lhs = expm_scaled_hermitian(X + Y, 1j)
        rhs = expm_scaled_hermitian(X, 1j) @ expm_scaled_hermitian(Y, 1j)
        assert spectral_norm(lhs - rhs) > 0.1

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_matches_taylor_series(self, dim):
        # Independent of the eigendecomposition: scale c*h below norm 1/2,
        # sum 30 Taylor terms, then square back up.
        rng = np.random.default_rng(dim)
        a = random_complex(rng, dim)
        h = a + a.conj().T
        c = -0.7j
        squarings = max(0, int(np.ceil(np.log2(2 * abs(c) * spectral_norm(h)))))
        m = c * h / 2**squarings
        term = np.eye(dim, dtype=complex)
        expected = term.copy()
        for j in range(1, 30):
            term = term @ m / j
            expected += term
        for _ in range(squarings):
            expected = expected @ expected
        assert spectral_norm(expm_scaled_hermitian(h, c) - expected) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expm_scaled_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), 1j)


def power_iteration_norm(a, iterations=2000):
    """Independent spectral-norm oracle: power iteration on a†a."""
    m = a.conj().T @ a
    v = np.full(a.shape[0], 1.0 / np.sqrt(a.shape[0]), dtype=complex)
    for _ in range(iterations):
        w = m @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
    return float(np.sqrt(np.real(v.conj() @ m @ v)))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-14)

    def test_zero_matrix(self):
        u = expm_scaled_hermitian(X + 0.3 * Z, 0.9j)
        assert spectral_norm(u - u) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_against_power_iteration(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, 8)
        expected = power_iteration_norm(a)
        assert spectral_norm(a) == pytest.approx(expected, rel=1e-6)


class TestMatrixPower:
    def test_first_power(self):
        rng = np.random.default_rng(4)
        a = random_complex(rng, 5)
        npt.assert_array_equal(matrix_power(a, 1), a)

    def test_pauli_involution(self):
        npt.assert_allclose(matrix_power(X, 2), I2, atol=0)

    def test_scalar_power(self):
        npt.assert_allclose(matrix_power(np.array([[2.0]]), 10), [[1024.0]], atol=0)

    def test_zero_power_is_identity(self):
        rng = np.random.default_rng(5)
        npt.assert_array_equal(matrix_power(random_complex(rng, 3), 0), np.eye(3))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            matrix_power(np.eye(2), -1)

    @pytest.mark.parametrize("r", [2, 3, 7, 11, 16])
    def test_matches_repeated_multiplication(self, r):
        rng = np.random.default_rng(r)
        a = random_complex(rng, 32)
        a /= spectral_norm(a)  # keep powers tame
        expected = a.copy()
        for _ in range(r - 1):
            expected = expected @ a
        assert spectral_norm(matrix_power(a, r) - expected) <= 1e-9
