"""Unit tests for the interpolation helpers."""

import numpy as np
import pytest

from repro.numerics.interpolate import interp_columns, linear_interpolate


class TestLinearInterpolate:
    def test_interior_point(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([0.0, 10.0, 20.0])
        assert linear_interpolate(0.5, xs, ys) == pytest.approx(5.0)
        assert linear_interpolate(1.25, xs, ys) == pytest.approx(12.5)

    def test_clamps_outside_range(self):
        xs = np.array([0.0, 1.0])
        ys = np.array([3.0, 7.0])
        assert linear_interpolate(-5.0, xs, ys) == 3.0
        assert linear_interpolate(5.0, xs, ys) == 7.0

    def test_exact_at_nodes(self):
        xs = np.array([0.0, 0.5, 2.0])
        ys = np.array([1.0, -1.0, 4.0])
        for x, y in zip(xs, ys, strict=True):
            assert linear_interpolate(float(x), xs, ys) == pytest.approx(y)

    def test_single_sample(self):
        assert linear_interpolate(3.0, np.array([1.0]), np.array([9.0])) == 9.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            linear_interpolate(0.0, np.array([]), np.array([]))

    def test_matches_np_interp_on_uneven_nodes(self, rng):
        xs = np.sort(rng.uniform(0.0, 10.0, 12))
        ys = rng.normal(size=12)
        for x in rng.uniform(-1.0, 11.0, 50):
            assert linear_interpolate(float(x), xs, ys) == pytest.approx(
                np.interp(x, xs, ys), rel=1e-12, abs=1e-12)

    def test_agrees_with_interp_columns(self, rng):
        xs = np.array([0.0, 1.0, 2.0, 4.0])
        columns = rng.normal(size=(4, 3))
        points = np.array([-0.5, 0.25, 0.5, 1.75, 3.0, 4.5])
        vector = interp_columns(points, xs, columns)
        for column in range(columns.shape[1]):
            scalar = [linear_interpolate(float(p), xs, columns[:, column])
                      for p in points]
            assert np.allclose(vector[:, column], scalar, rtol=1e-12,
                               atol=1e-12)
