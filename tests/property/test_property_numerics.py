"""Property-based tests of the numerical substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.numerics import available_backends, get_backend
from repro.numerics.grids import UniformGrid1D
from repro.numerics.interpolate import interp_columns

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                          allow_infinity=False)
positive_floats = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                            allow_infinity=False)


class TestTridiagonalProperties:
    @given(n=st.integers(min_value=2, max_value=40), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_solution_satisfies_system(self, n, seed):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-1.0, 1.0, n)
        upper = rng.uniform(-1.0, 1.0, n)
        diag = 3.0 + rng.uniform(0.0, 1.0, n)  # diagonally dominant
        rhs = rng.uniform(-10.0, 10.0, n)
        for name in available_backends():
            factorization = get_backend(name).factorize_tridiagonal(
                lower, diag, upper)
            solution = factorization.solve(rhs)
            reconstructed = diag * solution
            reconstructed[1:] += lower[1:] * solution[:-1]
            reconstructed[:-1] += upper[:-1] * solution[1:]
            assert np.allclose(reconstructed, rhs, atol=1e-8), name


class TestGridProperties:
    @given(lower=finite_floats, width=positive_floats,
           n=st.integers(min_value=2, max_value=500))
    @settings(max_examples=100, deadline=None)
    def test_cells_tile_the_interval(self, lower, width, n):
        grid = UniformGrid1D(lower, lower + width, n)
        assert grid.centers.size == n
        assert grid.edges.size == n + 1
        assert np.isclose(grid.edges[-1] - grid.edges[0], width, rtol=1e-9)
        assert np.allclose(np.diff(grid.centers), grid.dx, rtol=1e-6)

class TestInterpolationProperties:
    @given(seed=st.integers(0, 2**31 - 1), x=finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_interpolation_stays_within_value_range(self, seed, x):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 30)
        xs = np.sort(rng.uniform(-100.0, 100.0, n))
        ys = rng.uniform(-50.0, 50.0, (n, 3))
        values = interp_columns(np.array([x]), xs, ys)[0]
        assert np.all(np.min(ys, axis=0) - 1e-9 <= values)
        assert np.all(values <= np.max(ys, axis=0) + 1e-9)
