"""Unit tests for the Fokker-Planck solver (Equation 14)."""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    FokkerPlanckSolver,
    JRJControl,
    SystemParameters,
    TimeParameters,
)
from repro.core.moments import marginal_q
from repro.exceptions import StabilityError


@pytest.fixture
def solver(noisy_params, jrj_control, small_grid_params):
    return FokkerPlanckSolver(noisy_params, jrj_control,
                              grid_params=small_grid_params)


class TestFokkerPlanckSolver:
    def test_mass_is_conserved(self, solver, short_time_params):
        result = solver.solve_from_point(2.0, 0.6, short_time_params)
        for snapshot in result.snapshots:
            assert snapshot.moments.mass == pytest.approx(1.0, abs=1e-6)

    def test_density_stays_non_negative(self, solver, short_time_params):
        result = solver.solve_from_point(2.0, 0.6, short_time_params)
        assert np.all(result.final_density >= 0.0)

    def test_snapshots_include_initial_and_final(self, solver, short_time_params):
        result = solver.solve_from_point(2.0, 0.6, short_time_params)
        assert result.snapshots[0].time == 0.0
        assert result.snapshots[-1].time == pytest.approx(
            short_time_params.t_end, rel=0.05)
        assert len(result.snapshots) >= 3

    @pytest.mark.parametrize("t_end, dt", [(1.0, 0.4), (1.0, 0.3),
                                           (10.0, 3.0)])
    def test_final_snapshot_reaches_t_end(self, solver, t_end, dt):
        # t_end / dt rounds down: the solve still ends at t_end, on a
        # shortened last output step.
        result = solver.solve_from_point(
            2.0, 0.6, TimeParameters(t_end=t_end, dt=dt, snapshot_every=1))
        times = [snapshot.time for snapshot in result.snapshots]
        assert times[-1] == t_end
        assert len(times) == TimeParameters(t_end=t_end, dt=dt).n_steps + 1
        assert times[-2] == pytest.approx(times[-1] - (t_end % dt), abs=1e-12)

    def test_mean_queue_grows_from_under_loaded_start(self, solver):
        # Starting under-loaded below the target, the controller ramps the
        # rate up and the mean queue grows towards the target.
        result = solver.solve_from_point(
            0.0, 0.5, TimeParameters(t_end=60.0, dt=0.5, snapshot_every=10))
        assert result.mean_queue[-1] > result.mean_queue[0] + 2.0

    def test_long_run_settles_near_target(self, noisy_params, jrj_control,
                                          small_grid_params):
        solver = FokkerPlanckSolver(noisy_params, jrj_control,
                                    grid_params=small_grid_params)
        result = solver.solve_from_point(
            0.0, 0.5, TimeParameters(t_end=250.0, dt=1.0, snapshot_every=10))
        # Mean queue close to the target, mean growth rate close to zero.
        assert abs(result.final_moments.mean_q - noisy_params.q_target) < 4.0
        assert abs(result.final_moments.mean_v) < 0.1

    def test_sigma_zero_keeps_density_compact(self, canonical_params,
                                              jrj_control, small_grid_params,
                                              short_time_params):
        solver = FokkerPlanckSolver(canonical_params, jrj_control,
                                    grid_params=small_grid_params)
        result = solver.solve_from_point(2.0, 0.6, short_time_params)
        assert result.final_moments.std_q < 3.0

    def test_larger_sigma_gives_larger_spread(self, canonical_params,
                                              jrj_control, small_grid_params):
        time_params = TimeParameters(t_end=80.0, dt=1.0, snapshot_every=10)
        narrow = FokkerPlanckSolver(replace(canonical_params, sigma=0.1),
                                    jrj_control, grid_params=small_grid_params)
        wide = FokkerPlanckSolver(replace(canonical_params, sigma=0.6),
                                  jrj_control, grid_params=small_grid_params)
        result_narrow = narrow.solve_from_point(0.0, 0.5, time_params)
        result_wide = wide.solve_from_point(0.0, 0.5, time_params)
        assert (result_wide.final_moments.std_q
                > result_narrow.final_moments.std_q)

    def test_overflow_probability_decreases_with_buffer(self, solver):
        result = solver.solve_from_point(
            0.0, 0.5, TimeParameters(t_end=100.0, dt=1.0, snapshot_every=10))
        p_small = result.overflow_probability(12.0)
        p_large = result.overflow_probability(25.0)
        assert 0.0 <= p_large <= p_small <= 1.0

    def test_custom_initial_density_is_normalised(self, solver,
                                                  short_time_params):
        density = 3.0 * solver.default_initial_density(4.0, 0.8)
        result = solver.solve(density, short_time_params)
        assert result.snapshots[0].moments.mass == pytest.approx(1.0, abs=1e-9)

    def test_wrong_shape_initial_density_rejected(self, solver,
                                                  short_time_params):
        with pytest.raises(StabilityError):
            solver.solve(np.ones((3, 3)), short_time_params)

    def test_mean_rate_series(self, solver, short_time_params):
        result = solver.solve_from_point(2.0, 0.6, short_time_params)
        rates = result.mean_rate(mu=1.0)
        assert rates.shape == result.times.shape
        assert np.all(rates >= 0.0)

    def test_final_marginal_q_integrates_to_one(self, solver, short_time_params):
        result = solver.solve_from_point(2.0, 0.6, short_time_params)
        marginal = marginal_q(result.final_density, result.grid)
        assert marginal.shape == (result.grid.shape[0],)
        assert np.sum(marginal) * result.grid.dq == pytest.approx(1.0, abs=1e-6)
