import numpy as np
import pytest

from kronfft import (
    DenseLimitError,
    dft_matrix,
    exponent_matrix_render,
    kron_all,
    omega,
    omega_diag,
    omega_kron_factors,
    r_gate,
    r_gate_power,
)
from kronfft.spectral import _dft_product

SQ2 = 1 / np.sqrt(2)


class TestOmega:
    def test_half_turn(self):
        assert abs(omega(8, 4) - (-1)) < 1e-15

    @pytest.mark.parametrize("modulus", [1, 2, 7, 64])
    def test_zero_power(self, modulus):
        assert omega(modulus, 0) == 1

    def test_exponent_reduces_modulo(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            modulus = int(rng.integers(1, 50))
            power = int(rng.integers(-1000, 1000))
            assert abs(omega(modulus, power) - omega(modulus, power % modulus)) < 1e-14

    def test_rejects_zero_modulus(self):
        with pytest.raises(ValueError):
            omega(0, 1)


class TestDftMatrix:
    def test_size_one(self):
        np.testing.assert_array_equal(dft_matrix(1), [[1]])

    def test_size_two_is_hadamard(self):
        np.testing.assert_allclose(
            dft_matrix(2), SQ2 * np.array([[1, 1], [1, -1]]), atol=1e-15
        )

    def test_size_four_exact_entries(self):
        want = 0.5 * np.array(
            [
                [1, 1, 1, 1],
                [1, -1j, -1, 1j],
                [1, -1, 1, -1],
                [1, 1j, -1, -1j],
            ]
        )
        np.testing.assert_allclose(dft_matrix(4), want, atol=1e-15)

    def test_size_three_roots(self):
        f = dft_matrix(3)
        np.testing.assert_allclose(
            f[1] * np.sqrt(3), [1, omega(3, 1), omega(3, 2)], atol=1e-15
        )

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("size", [*range(1, 65), 4096])
    def test_gather_equals_exponential_of_exponents(self, size, inverse):
        # reference: one exponential per entry of the reduced exponent grid,
        # evaluated in row blocks to bound the memory of the N = 4096 case
        got = dft_matrix(size, inverse=inverse)
        assert got.dtype == np.complex128 and got.shape == (size, size)
        idx = np.arange(size, dtype=np.int64)
        sign = 2j if inverse else -2j
        for start in range(0, size, 512):
            exps = np.outer(idx[start : start + 512], idx) % size
            want = np.exp(sign * np.pi * exps / size) / np.sqrt(size)
            assert got[start : start + 512].tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [1, 2, 3, 8, 27, 100, 256, 1024])
    def test_unitary(self, size):
        f = dft_matrix(size)
        residual = np.max(np.abs(f @ f.conj().T - np.eye(size)))
        assert residual < 1e-12

    @pytest.mark.parametrize("size", [2, 5, 16])
    def test_first_column_is_uniform(self, size):
        col = dft_matrix(size)[:, 0]
        np.testing.assert_allclose(col, np.full(size, 1 / np.sqrt(size)), atol=1e-14)

    @pytest.mark.parametrize("size", [4, 9, 32])
    def test_inverse_is_conjugate(self, size):
        rng = np.random.default_rng(size)
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        y = dft_matrix(size) @ x
        back = dft_matrix(size, inverse=True) @ y
        assert np.max(np.abs(back - x)) < 1e-12
        np.testing.assert_allclose(
            dft_matrix(size, inverse=True), dft_matrix(size).conj(), atol=1e-15
        )

    @pytest.mark.parametrize("size", [1, 8, 64, 243, 256, 1000, 3125, 4096])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_streamed_product_is_bitwise(self, size, inverse):
        # Row blocks of 64 give every entry the same products as the whole matrix.
        rng = np.random.default_rng(size)
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        want = dft_matrix(size, inverse) @ x
        assert _dft_product(x, inverse).tobytes() == want.tobytes()

    def test_streamed_product_limit(self):
        with pytest.raises(DenseLimitError):
            _dft_product(np.ones(9), dense_limit=8)

    def test_limits(self):
        with pytest.raises(ValueError):
            dft_matrix(0)
        with pytest.raises(DenseLimitError):
            dft_matrix(8, dense_limit=4)


class TestOmegaDiag:
    def test_dimension_four_twiddle(self):
        want = np.diag([omega(8, k) for k in range(4)])
        np.testing.assert_allclose(omega_diag(2, 2), want, atol=1e-15)

    @pytest.mark.parametrize("n,d", [(1, 2), (3, 2), (2, 3)])
    def test_zero_power_is_identity(self, n, d):
        np.testing.assert_array_equal(omega_diag(n, d, 0), np.eye(d**n))

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (1, 5)])
    def test_square_equals_power_two(self, n, d):
        one = omega_diag(n, d, 1)
        np.testing.assert_allclose(one @ one, omega_diag(n, d, 2), atol=1e-14)

    def test_guards(self):
        with pytest.raises(ValueError):
            omega_diag(0, 2)
        with pytest.raises(ValueError):
            omega_diag(2, 2, power=-1)
        with pytest.raises(DenseLimitError):
            omega_diag(4, 2, dense_limit=8)


class TestRGate:
    def test_level_one_qubit_is_pauli_z(self):
        np.testing.assert_allclose(r_gate(1, 2), np.diag([1, -1]), atol=1e-15)

    def test_power_identity_radix_two(self):
        got = np.linalg.matrix_power(r_gate(3, 2), 2)
        np.testing.assert_allclose(got, r_gate(2, 2), atol=1e-15)

    def test_power_identity_radix_three(self):
        got = np.linalg.matrix_power(r_gate(3, 3), 3)
        np.testing.assert_allclose(got, r_gate(2, 3), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_power_family(self, d):
        # floating-point powering accrues error linear in the exponent
        eps = np.finfo(float).eps
        for n in range(2, 9):
            for j in range(1, n):
                got = np.linalg.matrix_power(r_gate(n, d), d**j)
                gap = np.max(np.abs(got - r_gate(n - j, d)))
                assert gap < 1e-12 + 2 * eps * d**j

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitary(self, d):
        for n in range(1, 9):
            g = r_gate(n, d)
            assert np.max(np.abs(g @ g.conj().T - np.eye(d))) < 1e-15

    def test_gate_power_matches_matrix_power(self):
        for ell in range(5):
            got = r_gate_power(4, 3, ell)
            want = np.linalg.matrix_power(r_gate(4, 3), ell)
            np.testing.assert_allclose(got, want, atol=1e-13)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            r_gate(0, 2)

    @staticmethod
    def _formula(level, d, exponent):
        modulus = d**level
        fractions = [(m * exponent) % modulus / modulus for m in range(d)]
        return np.diag(np.exp(-2j * np.pi * np.array(fractions)))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_high_levels_match_the_formula(self, d):
        # Every phase fraction underflows to 0.0 from about level 1075 / log2(d)
        # on, and past that r_gate_power stops forming d**level; no bit moves.
        for exponent in range(-d, 2 * d):
            for level in (*range(1, 400, 9), *range(400, 1200)):
                got = r_gate_power(level, d, exponent)
                assert got.tobytes() == self._formula(level, d, exponent).tobytes()
            huge = r_gate_power(10**9, d, exponent)
            assert huge.tobytes() == self._formula(1200, d, exponent).tobytes()


class TestOmegaKronFactors:
    def test_single_factor(self):
        factors = omega_kron_factors(1, 2)
        assert len(factors) == 1
        np.testing.assert_allclose(factors[0], omega_diag(1, 2), atol=1e-15)

    def test_two_qubit_twiddle(self):
        got = kron_all(omega_kron_factors(2, 2))
        np.testing.assert_allclose(got, omega_diag(2, 2), atol=1e-15)

    @pytest.mark.parametrize("n,d", [(3, 2), (6, 2), (4, 3), (3, 5)])
    def test_product_matches_diagonal(self, n, d):
        got = kron_all(omega_kron_factors(n, d))
        assert np.max(np.abs(got - omega_diag(n, d))) < 1e-12

    def test_levels_run_from_two(self):
        factors = omega_kron_factors(3, 2)
        for i, f in enumerate(factors):
            np.testing.assert_allclose(f, r_gate(i + 2, 2), atol=1e-15)


class TestExponentRender:
    def test_eight_mod_row(self):
        rows = exponent_matrix_render(8, mod=True).splitlines()
        assert rows[3].split() == ["0", "3", "6", "1", "4", "7", "2", "5"]

    def test_trivial_grid(self):
        assert exponent_matrix_render(1) == "0"

    def test_four_mod_row_two(self):
        rows = exponent_matrix_render(4, mod=True).splitlines()
        assert rows[2].split() == ["0", "2", "0", "2"]

    def test_unreduced_grid_grows(self):
        rows = exponent_matrix_render(4).splitlines()
        assert rows[3].split() == ["0", "3", "6", "9"]

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exponent_matrix_render(65)
        with pytest.raises(ValueError):
            exponent_matrix_render(0)
