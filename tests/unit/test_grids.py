"""Unit tests for the grid classes."""

import numpy as np
import pytest

from repro.exceptions import GridError
from repro.numerics.grids import PhaseGrid2D, UniformGrid1D


class TestUniformGrid1D:
    def test_centers_and_edges(self):
        grid = UniformGrid1D(0.0, 10.0, 10)
        assert grid.dx == pytest.approx(1.0)
        assert grid.centers[0] == pytest.approx(0.5)
        assert grid.centers[-1] == pytest.approx(9.5)
        assert grid.edges[0] == pytest.approx(0.0)
        assert grid.edges[-1] == pytest.approx(10.0)
        assert grid.centers.size == 10
        assert grid.edges.size == 11

    def test_rejects_degenerate_grids(self):
        with pytest.raises(GridError):
            UniformGrid1D(0.0, 1.0, 1)
        with pytest.raises(GridError):
            UniformGrid1D(1.0, 1.0, 10)
        with pytest.raises(GridError):
            UniformGrid1D(0.0, np.inf, 10)


class TestPhaseGrid2D:
    def test_shape_and_cell_area(self, phase_grid):
        assert phase_grid.shape == (40, 20)
        assert phase_grid.cell_area == pytest.approx(phase_grid.dq * phase_grid.dv)

    def test_from_bounds_constructor(self):
        grid = PhaseGrid2D.from_bounds(q_max=20.0, nq=40, v_min=-1.0,
                                       v_max=1.0, nv=20)
        assert grid.shape == (40, 20)
        assert grid.q_centers[0] == pytest.approx(0.25)

    def test_meshgrid_shapes(self, phase_grid):
        q, v = phase_grid.meshgrid()
        assert q.shape == phase_grid.shape
        assert v.shape == phase_grid.shape
        # The first axis varies q, the second varies v.
        assert np.allclose(q[:, 0], q[:, -1])
        assert np.allclose(v[0, :], v[-1, :])

    def test_total_mass_and_normalize(self, phase_grid):
        density = np.ones(phase_grid.shape)
        mass = phase_grid.total_mass(density)
        assert mass == pytest.approx(20.0 * 2.0)
        normalized = phase_grid.normalize(density)
        assert phase_grid.total_mass(normalized) == pytest.approx(1.0)

    def test_normalize_rejects_zero_mass(self, phase_grid):
        with pytest.raises(GridError):
            phase_grid.normalize(np.zeros(phase_grid.shape))

    def test_gaussian_density_is_normalised_and_centred(self, phase_grid):
        density = phase_grid.gaussian_density(10.0, 0.0, 2.0, 0.2)
        assert phase_grid.total_mass(density) == pytest.approx(1.0)
        q, v = phase_grid.meshgrid()
        mean_q = np.sum(q * density) * phase_grid.cell_area
        assert mean_q == pytest.approx(10.0, abs=0.2)

    def test_gaussian_rejects_non_positive_std(self, phase_grid):
        with pytest.raises(GridError):
            phase_grid.gaussian_density(5.0, 0.0, 0.0, 0.1)

    def test_shape_mismatch_detected(self, phase_grid):
        with pytest.raises(GridError):
            phase_grid.total_mass(np.zeros((3, 3)))
