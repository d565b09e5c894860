"""Unit tests for the Bolot-Shankar fluid baseline and its FP comparison."""

import numpy as np
import pytest

from repro import (
    FluidModel,
    GridParameters,
    JRJControl,
    SystemParameters,
    compare_fluid_and_fokker_planck,
)


class TestFluidModel:
    def test_under_loaded_start_ramps_rate_linearly(self, canonical_params,
                                                    jrj_control):
        model = FluidModel(jrj_control, canonical_params)
        trajectory = model.solve(q0=0.0, rate0=0.2, t_end=5.0, dt=0.01)
        assert trajectory.final_rate == pytest.approx(0.2 + 0.05 * 5.0, rel=0.01)

    def test_converges_to_limit_point_without_delay(self, canonical_params,
                                                    jrj_control):
        model = FluidModel(jrj_control, canonical_params)
        trajectory = model.solve(q0=0.0, rate0=0.5, t_end=1500.0, dt=0.05)
        assert trajectory.final_queue == pytest.approx(
            canonical_params.q_target, abs=1.0)
        assert trajectory.final_rate == pytest.approx(canonical_params.mu,
                                                      abs=0.1)

    def test_time_average_queue(self, canonical_params, jrj_control):
        model = FluidModel(jrj_control, canonical_params)
        trajectory = model.solve(q0=0.0, rate0=0.5, t_end=800.0, dt=0.05)
        assert trajectory.time_average_queue() == pytest.approx(
            canonical_params.q_target, rel=0.3)

    def test_growth_rate_series(self, canonical_params, jrj_control):
        model = FluidModel(jrj_control, canonical_params)
        trajectory = model.solve(q0=0.0, rate0=0.5, t_end=10.0, dt=0.1)
        assert np.allclose(trajectory.growth_rate,
                           trajectory.rate - canonical_params.mu)


class TestFluidFPComparison:
    def test_mean_trajectories_agree_for_small_sigma(self, jrj_control):
        params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2,
                                  sigma=0.1)
        grid = GridParameters(q_max=30.0, nq=60, v_min=-1.2, v_max=1.2, nv=48)
        comparison = compare_fluid_and_fokker_planck(
            jrj_control, params, q0=0.0, rate0=0.5, t_end=60.0,
            grid_params=grid)
        # The FP mean should track the fluid solution within a few packets.
        assert comparison.mean_queue_rmse < 3.0

    def test_fp_provides_variance_fluid_cannot(self, jrj_control):
        params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2,
                                  sigma=0.5)
        grid = GridParameters(q_max=30.0, nq=60, v_min=-1.2, v_max=1.2, nv=48)
        comparison = compare_fluid_and_fokker_planck(
            jrj_control, params, q0=0.0, rate0=0.5, t_end=60.0,
            grid_params=grid)
        assert comparison.final_queue_std > 0.5

    def test_overflow_probability_reported_when_buffer_given(self, jrj_control):
        params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2,
                                  sigma=0.5)
        grid = GridParameters(q_max=30.0, nq=60, v_min=-1.2, v_max=1.2, nv=48)
        comparison = compare_fluid_and_fokker_planck(
            jrj_control, params, q0=0.0, rate0=0.5, t_end=60.0,
            grid_params=grid, buffer_size=20.0)
        assert comparison.overflow_probability is not None
        assert 0.0 <= comparison.overflow_probability <= 1.0

    def test_overflow_probability_none_without_buffer(self, jrj_control):
        params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2,
                                  sigma=0.2)
        grid = GridParameters(q_max=30.0, nq=50, v_min=-1.2, v_max=1.2, nv=40)
        comparison = compare_fluid_and_fokker_planck(
            jrj_control, params, q0=0.0, rate0=0.5, t_end=40.0,
            grid_params=grid)
        assert comparison.overflow_probability is None
