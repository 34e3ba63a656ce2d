import numpy as np
import numpy.testing as npt
import pytest

from trotteropt.linalg import expm_scaled_hermitian, matrix_power, spectral_norm

from sectors import dense

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

    def test_zero_power_rejected(self):
        # A product formula has r >= 1 slices; no caller needs the identity.
        with pytest.raises(ValueError, match="below 1"):
            matrix_power(np.eye(2), 0)

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


def random_stack(rng, blocks, dim, hermitian=False):
    a = rng.standard_normal((blocks, dim, dim)) + 1j * rng.standard_normal((blocks, dim, dim))
    return a + a.conj().swapaxes(-1, -2) if hermitian else a


class TestStacks:
    """A (..., m, m) stack stands for its block-diagonal operator."""

    @pytest.mark.parametrize("shape", [(2, 4), (2, 16), (3, 5)])
    @pytest.mark.parametrize("r", [1, 2, 7, 125])
    def test_matrix_power_block_by_block(self, shape, r):
        rng = np.random.default_rng(r + shape[1])
        stack = random_stack(rng, *shape)
        stack /= np.array([spectral_norm(block) for block in stack])[:, None, None]
        got = matrix_power(stack, r)
        assert got.shape == stack.shape
        for block, value in zip(stack, got):
            npt.assert_array_equal(value, matrix_power(block, r))

    @pytest.mark.parametrize("shape", [(2, 4), (2, 16), (3, 5)])
    @pytest.mark.parametrize("c", [-1.7j, 0.3j, 0.25])
    def test_expm_block_by_block(self, shape, c):
        rng = np.random.default_rng(shape[1])
        stack = random_stack(rng, *shape, hermitian=True)
        got = expm_scaled_hermitian(stack, c)
        assert got.shape == stack.shape
        for block, value in zip(stack, got):
            npt.assert_array_equal(value, expm_scaled_hermitian(block, c))

    @pytest.mark.parametrize("seed", range(5))
    def test_spectral_norm_of_block_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        stack = random_stack(rng, 2, 8)
        stack[seed % 2] *= 3.0  # the largest norm sits in either block
        full = dense(stack)
        assert abs(spectral_norm(stack) - spectral_norm(full)) <= 1e-12 * spectral_norm(full)
        assert abs(spectral_norm(stack) - np.linalg.norm(full, 2)) <= 1e-12 * spectral_norm(full)

    def test_one_non_hermitian_block_raises(self):
        rng = np.random.default_rng(6)
        stack = random_stack(rng, 2, 4, hermitian=True)
        stack[1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            expm_scaled_hermitian(stack, 1j)
        expm_scaled_hermitian(stack[:1], 1j)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4), (0, 2, 2)])
    def test_rejects_non_square(self, shape):
        for fn in (lambda a: matrix_power(a, 2), spectral_norm, lambda a: expm_scaled_hermitian(a, 1j)):
            with pytest.raises(ValueError, match="square"):
                fn(np.zeros(shape))
