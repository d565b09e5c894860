"""Unit tests for the tridiagonal (Thomas) solver."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError
from repro.numerics import get_backend
from repro.numerics.tridiag import TridiagonalFactorization


def solve_tridiagonal(lower, diag, upper, rhs):
    """One solve through the numpy backend's factorization."""
    return get_backend("numpy").factorize_tridiagonal(
        lower, diag, upper).solve(rhs)


def _dense_from_bands(lower, diag, upper):
    n = len(diag)
    matrix = np.zeros((n, n))
    for i in range(n):
        matrix[i, i] = diag[i]
        if i > 0:
            matrix[i, i - 1] = lower[i]
        if i < n - 1:
            matrix[i, i + 1] = upper[i]
    return matrix


class TestSolveTridiagonal:
    def test_matches_dense_solve(self, rng):
        n = 50
        lower = rng.uniform(-1.0, 1.0, n)
        upper = rng.uniform(-1.0, 1.0, n)
        diag = 4.0 + rng.uniform(0.0, 1.0, n)
        rhs = rng.uniform(-5.0, 5.0, n)
        dense = _dense_from_bands(lower, diag, upper)
        expected = np.linalg.solve(dense, rhs)
        result = solve_tridiagonal(lower, diag, upper, rhs)
        assert np.allclose(result, expected, atol=1e-10)

    def test_identity_matrix(self):
        n = 10
        rhs = np.arange(float(n))
        result = solve_tridiagonal(np.zeros(n), np.ones(n), np.zeros(n), rhs)
        assert np.allclose(result, rhs)

    def test_multiple_right_hand_sides(self, rng):
        n = 20
        lower = np.full(n, -1.0)
        upper = np.full(n, -1.0)
        diag = np.full(n, 3.0)
        rhs = rng.uniform(-1.0, 1.0, (n, 7))
        result = solve_tridiagonal(lower, diag, upper, rhs)
        dense = _dense_from_bands(lower, diag, upper)
        assert result.shape == (n, 7)
        assert np.allclose(dense @ result, rhs, atol=1e-10)

    def test_preserves_1d_shape(self):
        n = 5
        result = solve_tridiagonal(np.zeros(n), np.ones(n), np.zeros(n),
                                   np.ones(n))
        assert result.ndim == 1

    def test_singular_matrix_raises(self):
        n = 4
        with pytest.raises(ConvergenceError):
            solve_tridiagonal(np.zeros(n), np.zeros(n), np.zeros(n), np.ones(n))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve_tridiagonal(np.zeros(3), np.ones(4), np.zeros(4), np.ones(4))
        with pytest.raises(ValueError):
            solve_tridiagonal(np.zeros(4), np.ones(4), np.zeros(4), np.ones(3))


class TestTridiagonalFactorization:
    def _random_system(self, rng, n):
        lower = rng.uniform(-1.0, 1.0, n)
        upper = rng.uniform(-1.0, 1.0, n)
        diag = 4.0 + rng.uniform(0.0, 1.0, n)
        return lower, diag, upper

    def test_matches_dense_solve(self, rng):
        n = 40
        lower, diag, upper = self._random_system(rng, n)
        rhs = rng.uniform(-5.0, 5.0, (n, 6))
        factorization = TridiagonalFactorization(lower, diag, upper)
        dense = _dense_from_bands(lower, diag, upper)
        expected = np.linalg.solve(dense, rhs)
        assert np.allclose(factorization.solve(rhs), expected, atol=1e-10)

    def test_reuse_across_right_hand_sides(self, rng):
        # One factorization must serve many solves without re-elimination.
        n = 30
        lower, diag, upper = self._random_system(rng, n)
        factorization = TridiagonalFactorization(lower, diag, upper)
        dense = _dense_from_bands(lower, diag, upper)
        for _ in range(5):
            rhs = rng.uniform(-1.0, 1.0, n)
            assert np.allclose(dense @ factorization.solve(rhs), rhs,
                               atol=1e-10)

    def test_each_column_solves_bitwise_like_its_own_system(self, rng):
        # The column dimension is vectorized, not coupled: a block of
        # right-hand sides gives exactly the bits of one solve per column.
        n = 25
        lower, diag, upper = self._random_system(rng, n)
        rhs = rng.uniform(-1.0, 1.0, (n, 3))
        factorization = TridiagonalFactorization(lower, diag, upper)
        block = factorization.solve(rhs)
        for column in range(rhs.shape[1]):
            assert np.array_equal(block[:, column],
                                  factorization.solve(rhs[:, column]))

    def test_preallocated_out(self, rng):
        n = 20
        lower, diag, upper = self._random_system(rng, n)
        rhs = rng.uniform(-1.0, 1.0, (n, 4))
        factorization = TridiagonalFactorization(lower, diag, upper)
        out = np.empty_like(rhs)
        returned = factorization.solve(rhs, out=out)
        assert returned is out
        assert np.array_equal(out, factorization.solve(rhs))

    def test_out_shape_mismatch_raises(self, rng):
        n = 10
        lower, diag, upper = self._random_system(rng, n)
        factorization = TridiagonalFactorization(lower, diag, upper)
        with pytest.raises(ValueError):
            factorization.solve(np.ones((n, 2)), out=np.empty((n, 3)))

    def test_singular_matrix_raises(self):
        n = 4
        with pytest.raises(ConvergenceError):
            TridiagonalFactorization(np.zeros(n), np.zeros(n), np.zeros(n))
