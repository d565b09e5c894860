"""Unit tests for the trapezoid quadrature."""

import numpy as np
import pytest

from repro.exceptions import GridError
from repro.numerics.integrate import trapezoid


class TestTrapezoid:
    def test_linear_function_exact(self):
        xs = np.linspace(0.0, 1.0, 11)
        values = 2.0 * xs + 1.0
        assert trapezoid(values, xs[1] - xs[0]) == pytest.approx(2.0)

    def test_requires_two_samples(self):
        with pytest.raises(GridError):
            trapezoid(np.array([1.0]), 0.1)

    def test_two_samples_average_the_endpoints(self):
        assert trapezoid(np.array([0.0, 1.0]), 1.0) == pytest.approx(0.5)
        assert trapezoid(np.array([2.0, 4.0]), 0.5) == pytest.approx(1.5)

    def test_quadratic_error_matches_the_error_term(self):
        # The composite rule overestimates x**2 on [0, 2] by exactly
        # (b - a) * dx**2 * f'' / 12 = dx**2 / 3.
        xs = np.linspace(0.0, 2.0, 21)
        dx = xs[1] - xs[0]
        error = trapezoid(xs ** 2, dx) - 8.0 / 3.0
        assert error == pytest.approx(dx ** 2 / 3.0, rel=1e-9)

    def test_second_order_convergence(self):
        errors = []
        for n in (21, 41, 81):
            xs = np.linspace(0.0, np.pi, n)
            errors.append(abs(trapezoid(np.sin(xs), xs[1] - xs[0]) - 2.0))
        for coarse, fine in zip(errors, errors[1:], strict=False):
            assert coarse / fine == pytest.approx(4.0, rel=0.01)
