"""Unit tests for the finite-volume advection steps of the FP solver."""

import numpy as np
import pytest

from repro.core.advection import (
    FLUSH_THRESHOLD,
    UpwindAdvection,
    cfl_time_step_from_speeds,
)
from repro.exceptions import StabilityError
from repro.numerics.grids import PhaseGrid2D, UniformGrid1D


@pytest.fixture
def grid():
    return PhaseGrid2D(UniformGrid1D(0.0, 10.0, 50), UniformGrid1D(-1.0, 1.0, 20))


@pytest.fixture
def workspace(grid):
    return UpwindAdvection(grid)


def cfl_time_step(grid, drift, cfl, max_dt):
    """The CFL step of a drift field, as the solver takes it."""
    return cfl_time_step_from_speeds(grid, float(np.max(np.abs(drift))),
                                     cfl, max_dt)


def _grid(nq, nv):
    return PhaseGrid2D(UniformGrid1D(0.0, 10.0, nq),
                       UniformGrid1D(-1.0, 1.0, nv))


def _blob(grid, q_center, v_center):
    return grid.gaussian_density(q_center, v_center, 0.8, 0.15)


def _advect_v(workspace, density, drift, dt):
    workspace.set_drift(drift)
    return workspace.advect_v(density, dt)


def _reference_advect_q(density, grid, dt, clamp=True):
    """Per-call upwind step along q (reflecting at ``q = 0``)."""
    v = grid.v_centers
    flux = np.zeros((density.shape[0] + 1, density.shape[1]))
    flux[1:-1] = np.where(v > 0.0, v * density[:-1],
                          np.where(v < 0.0, v * density[1:], 0.0))
    flux[-1] = np.where(v > 0.0, v * density[-1], 0.0)
    updated = density - (flux[1:] - flux[:-1]) * (dt / grid.dq)
    return np.maximum(updated, 0.0) if clamp else updated


def _reference_advect_v(density, grid, drift, dt, flush=False):
    """Per-call conservative upwind step along ν between no-flux walls."""
    interface = 0.5 * (drift[:, :-1] + drift[:, 1:])
    flux = np.zeros((density.shape[0], density.shape[1] + 1))
    flux[:, 1:-1] = np.where(interface > 0.0, interface * density[:, :-1],
                             interface * density[:, 1:])
    updated = density - (flux[:, 1:] - flux[:, :-1]) * (dt / grid.dv)
    if flush:
        return np.where(updated >= FLUSH_THRESHOLD, updated, 0.0)
    return np.maximum(updated, 0.0)


class TestCFLTimeStep:
    def test_respects_maximum_dt(self, grid):
        drift = np.zeros(grid.shape)
        dt = cfl_time_step(grid, drift, cfl=0.5, max_dt=0.01)
        assert dt == pytest.approx(0.01)

    def test_limits_by_velocity(self, grid):
        drift = np.zeros(grid.shape)
        dt = cfl_time_step(grid, drift, cfl=0.5, max_dt=10.0)
        max_speed = np.max(np.abs(grid.v_centers))
        assert dt == pytest.approx(0.5 * grid.dq / max_speed)

    def test_limits_by_drift(self, grid):
        drift = np.full(grid.shape, 5.0)
        dt = cfl_time_step(grid, drift, cfl=0.5, max_dt=10.0)
        assert dt <= 0.5 * grid.dv / 5.0 + 1e-12


class TestUpwindAdvectQ:
    def test_conserves_mass_with_reflecting_boundary(self, grid, workspace):
        density = _blob(grid, 5.0, 0.0)
        mass_before = grid.total_mass(density)
        dt = cfl_time_step(grid, np.zeros(grid.shape), 0.9, 0.05)
        updated = workspace.advect_q(density, dt)
        # Mass only leaves through q = q_max; a centred blob loses only the
        # (negligible) Gaussian tail already sitting at that edge.
        assert grid.total_mass(updated) == pytest.approx(mass_before, rel=1e-9)

    def test_positive_velocity_moves_mass_right(self, grid, workspace):
        density = _blob(grid, 3.0, 0.5)
        dt = 0.05
        updated = density.copy()
        for _ in range(40):
            updated = workspace.advect_q(updated, dt)
        q_mesh, _ = grid.meshgrid()
        mean_before = np.sum(q_mesh * density) / np.sum(density)
        mean_after = np.sum(q_mesh * updated) / np.sum(updated)
        assert mean_after > mean_before + 0.3

    def test_negative_velocity_moves_mass_left(self, grid, workspace):
        density = _blob(grid, 7.0, -0.5)
        updated = density.copy()
        for _ in range(40):
            updated = workspace.advect_q(updated, 0.05)
        q_mesh, _ = grid.meshgrid()
        mean_before = np.sum(q_mesh * density) / np.sum(density)
        mean_after = np.sum(q_mesh * updated) / np.sum(updated)
        assert mean_after < mean_before - 0.3

    def test_reflecting_boundary_keeps_mass_non_negative_queue(self, grid,
                                                               workspace):
        # Mass pushed against q = 0 must not leak out.
        density = _blob(grid, 0.5, -0.8)
        updated = density.copy()
        for _ in range(100):
            updated = workspace.advect_q(updated, 0.05)
        assert grid.total_mass(updated) == pytest.approx(1.0, rel=1e-10)
        assert np.all(updated >= 0.0)

    def test_cfl_violation_raises(self, grid, workspace):
        density = _blob(grid, 5.0, 0.0)
        with pytest.raises(StabilityError):
            workspace.advect_q(density, dt=10.0)

    def test_result_non_negative(self, grid, workspace):
        density = _blob(grid, 5.0, 0.3)
        updated = workspace.advect_q(density, 0.05)
        assert np.all(updated >= 0.0)


class TestUpwindAdvectV:
    def test_conserves_mass(self, grid, workspace):
        density = _blob(grid, 5.0, 0.0)
        drift = np.full(grid.shape, 0.3)
        dt = 0.05
        updated = _advect_v(workspace, density, drift, dt)
        assert grid.total_mass(updated) == pytest.approx(1.0, rel=1e-12)

    def test_positive_drift_moves_mass_up(self, grid, workspace):
        density = _blob(grid, 5.0, -0.3)
        workspace.set_drift(np.full(grid.shape, 0.5))
        updated = density.copy()
        for _ in range(30):
            updated = workspace.advect_v(updated, 0.05)
        _, v_mesh = grid.meshgrid()
        mean_before = np.sum(v_mesh * density) / np.sum(density)
        mean_after = np.sum(v_mesh * updated) / np.sum(updated)
        assert mean_after > mean_before + 0.2

    def test_negative_drift_moves_mass_down(self, grid, workspace):
        density = _blob(grid, 5.0, 0.3)
        workspace.set_drift(np.full(grid.shape, -0.5))
        updated = density.copy()
        for _ in range(30):
            updated = workspace.advect_v(updated, 0.05)
        _, v_mesh = grid.meshgrid()
        assert (np.sum(v_mesh * updated) / np.sum(updated)
                < np.sum(v_mesh * density) / np.sum(density) - 0.2)

    def test_shape_mismatch_raises(self, grid, workspace):
        density = _blob(grid, 5.0, 0.0)
        with pytest.raises(StabilityError):
            _advect_v(workspace, density, np.zeros((3, 3)), 0.05)

    def test_cfl_violation_raises(self, grid, workspace):
        density = _blob(grid, 5.0, 0.0)
        drift = np.full(grid.shape, 100.0)
        with pytest.raises(StabilityError):
            _advect_v(workspace, density, drift, 0.5)


class TestUpwindAdvectionWorkspace:
    """The preallocated workspace must match the per-call upwind scheme."""

    def _drift(self, grid):
        q_mesh, v_mesh = grid.meshgrid()
        return np.where(q_mesh <= 5.0, 0.05, -0.2 * (v_mesh + 1.0))

    def test_advect_q_matches_function(self, grid):
        workspace = UpwindAdvection(grid)
        density = _blob(grid, 5.0, 0.2)
        out = np.empty_like(density)
        workspace.advect_q(density, 0.05, out=out)
        assert np.array_equal(out, _reference_advect_q(density, grid, 0.05))

    def test_advect_v_matches_function(self, grid):
        workspace = UpwindAdvection(grid)
        density = _blob(grid, 5.0, 0.0)
        drift = self._drift(grid)
        workspace.set_drift(drift)
        out = np.empty_like(density)
        workspace.advect_v(density, 0.05, out=out)
        assert np.array_equal(out,
                              _reference_advect_v(density, grid, drift, 0.05))

    @pytest.mark.parametrize("shape", [(7, 5), (50, 40), (60, 48)])
    def test_unclamped_advect_q_is_bitwise_reference(self, shape):
        grid = _grid(*shape)
        workspace = UpwindAdvection(grid)
        dt = cfl_time_step(grid, np.zeros(grid.shape), 0.9, 1.0)
        rng = np.random.default_rng(shape[0])
        for _ in range(3):
            density = rng.random(grid.shape)
            got = workspace.advect_q(density, dt, clamp=False)
            want = _reference_advect_q(density, grid, dt, clamp=False)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(7, 5), (50, 40), (60, 48)])
    def test_flushed_advect_v_is_bitwise_reference(self, shape):
        grid = _grid(*shape)
        workspace = UpwindAdvection(grid)
        q_mesh, v_mesh = grid.meshgrid()
        rng = np.random.default_rng(shape[1])
        # A drift re-installed between calls must fully replace the last
        # one; each field has both upwind directions.
        for switch_q in (2.0, 8.0, 5.0):
            drift = np.where(q_mesh <= switch_q, 0.05,
                             -0.2 * (v_mesh + 0.5))
            workspace.set_drift(drift)
            dt = cfl_time_step(grid, drift, 0.9, 1.0)
            density = rng.random(grid.shape)
            density[:, 0] = 1e-160  # far-tail values below the threshold
            got = workspace.advect_v(density, dt, flush=True)
            want = _reference_advect_v(density, grid, drift, dt, flush=True)
            assert np.array_equal(got, want)

    def test_repeated_calls_do_not_leak_state(self, grid):
        workspace = UpwindAdvection(grid)
        workspace.set_drift(self._drift(grid))
        density = _blob(grid, 3.0, 0.1)
        first = workspace.advect_q(density, 0.05)
        for _ in range(5):
            workspace.advect_q(_blob(grid, 7.0, -0.2), 0.04)
            workspace.advect_v(_blob(grid, 7.0, -0.2), 0.04)
        again = workspace.advect_q(density, 0.05)
        assert np.array_equal(first, again)

    def test_max_abs_drift_cached(self, grid):
        workspace = UpwindAdvection(grid)
        drift = self._drift(grid)
        workspace.set_drift(drift)
        assert workspace.max_abs_drift == pytest.approx(
            float(np.max(np.abs(drift))))
