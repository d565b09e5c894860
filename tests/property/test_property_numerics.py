"""Property-based tests of the numerical substrate (hypothesis)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.numerics.grids import UniformGrid1D
from repro.numerics.integrate import trapezoid
from repro.numerics.interpolate import interp_columns
from repro.numerics.tridiag import solve_tridiagonal

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
        solution = solve_tridiagonal(lower, diag, upper, rhs)
        reconstructed = diag * solution
        reconstructed[1:] += lower[1:] * solution[:-1]
        reconstructed[:-1] += upper[:-1] * solution[1:]
        assert np.allclose(reconstructed, rhs, atol=1e-8)


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

    @given(lower=finite_floats, width=positive_floats,
           n=st.integers(min_value=2, max_value=200),
           x=finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_locate_returns_valid_index(self, lower, width, n, x):
        grid = UniformGrid1D(lower, lower + width, n)
        index = grid.locate(x)
        assert 0 <= index < n

    @given(lower=finite_floats, width=positive_floats,
           n=st.integers(min_value=2, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_delta_density_always_unit_mass(self, lower, width, n):
        grid = UniformGrid1D(lower, lower + width, n)
        x = lower + 0.37 * width
        density = grid.delta_density(x)
        assert np.isclose(np.sum(density) * grid.dx, 1.0)


class TestQuadratureProperties:
    @given(values=arrays(np.float64, st.integers(min_value=2, max_value=200),
                         elements=st.floats(min_value=0.0, max_value=1e3)),
           dx=positive_floats)
    # Broke the purely relative bound: the exact integral is 3 subnormal
    # ulps, trapezoid returns 4 and the upper bound rounds to 3.
    @example(values=np.full(3, 5e-324), dx=1.5)
    @settings(max_examples=100, deadline=None)
    def test_non_negative_integrand_bounded_by_its_range(self, values, dx):
        span = dx * (values.size - 1)
        integral = trapezoid(values, dx)
        # The relative slack covers rounding of normal numbers only.  A
        # product or quotient with a subnormal result rounds to within half
        # a subnormal ulp u = 2**-1074 in absolute terms, and no relative
        # bound survives that: [u, u] at dx=1.3 integrates to exactly 1.3u,
        # which must round to u or 2u.  Each of the n-1 trapezoid terms
        # dx*(a+b)/2 rounds a product and a quotient (at most u/4 + u/2),
        # and each bound below rounds twice more (at most u), so n*u covers
        # both sides.
        allowance = values.size * np.nextafter(0.0, 1.0)
        assert np.min(values) * span * (1 - 1e-12) - allowance <= integral
        assert integral <= np.max(values) * span * (1 + 1e-12) + allowance


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
