"""Unit tests for initial conditions and density moments."""

import numpy as np
import pytest

from repro.core.initial import gaussian_initial_density
from repro.core.moments import (
    compute_moments,
    marginal_q,
    tail_probability,
)
from repro.exceptions import AnalysisError, ConfigurationError
from repro.numerics.grids import PhaseGrid2D, UniformGrid1D


@pytest.fixture
def grid():
    return PhaseGrid2D(UniformGrid1D(0.0, 20.0, 80), UniformGrid1D(-1.0, 1.0, 40))


class TestInitialConditions:
    def test_gaussian_density_moments(self, grid):
        density = gaussian_initial_density(grid, 8.0, 0.1, q_std=1.5, v_std=0.2)
        moments = compute_moments(density, grid)
        assert moments.mean_q == pytest.approx(8.0, abs=0.2)
        assert moments.mean_v == pytest.approx(0.1, abs=0.05)
        assert moments.std_q == pytest.approx(1.5, rel=0.2)

    def test_gaussian_too_narrow_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            gaussian_initial_density(grid, 8.0, 0.1, q_std=1e-6, v_std=0.2)


class TestMoments:
    def test_moments_of_known_gaussian(self, grid):
        density = grid.gaussian_density(10.0, 0.2, 2.0, 0.3)
        moments = compute_moments(density, grid)
        assert moments.mass == pytest.approx(1.0)
        assert moments.mean_q == pytest.approx(10.0, abs=0.1)
        assert moments.mean_v == pytest.approx(0.2, abs=0.02)
        assert moments.std_q == pytest.approx(2.0, rel=0.1)
        assert moments.std_v == pytest.approx(0.3, rel=0.15)
        assert abs(moments.covariance) < 0.05

    def test_mean_rate_helper(self, grid):
        density = grid.gaussian_density(10.0, 0.2, 2.0, 0.3)
        moments = compute_moments(density, grid)
        assert moments.mean_rate(mu=1.0) == pytest.approx(1.2, abs=0.03)

    def test_empty_density_raises(self, grid):
        with pytest.raises(AnalysisError):
            compute_moments(np.zeros(grid.shape), grid)

    def test_marginals_integrate_to_total_mass(self, grid):
        density = grid.gaussian_density(10.0, 0.0, 2.0, 0.3)
        q_marginal = marginal_q(density, grid)
        assert np.sum(q_marginal) * grid.dq == pytest.approx(1.0, rel=1e-10)

    def test_tail_probability_of_gaussian(self, grid):
        density = grid.gaussian_density(10.0, 0.0, 2.0, 0.3)
        # P(Q > 10) is one half for a symmetric density centred at 10.
        assert tail_probability(density, grid, 10.0) == pytest.approx(0.5, abs=0.05)
        assert tail_probability(density, grid, 0.0) == pytest.approx(1.0, abs=0.01)
        assert tail_probability(density, grid, 19.9) == pytest.approx(0.0, abs=0.01)

    def test_tail_probability_monotone_in_threshold(self, grid):
        density = grid.gaussian_density(10.0, 0.0, 2.0, 0.3)
        thresholds = [2.0, 6.0, 10.0, 14.0, 18.0]
        probabilities = [tail_probability(density, grid, b) for b in thresholds]
        assert all(p1 >= p2 for p1, p2 in zip(probabilities, probabilities[1:], strict=False))
