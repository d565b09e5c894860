"""Unit tests for the reduced (sigma = 0) system solved along its characteristics."""

import numpy as np
import pytest

from repro import (
    SystemParameters,
    integrate_characteristic,
    integrate_characteristic_batch,
)


class TestReducedSystemSolver:
    """Equation 16 through :func:`integrate_characteristic` and its batch form."""

    def test_queue_and_rate_stay_non_negative(self, canonical_params,
                                              jrj_control):
        trajectory = integrate_characteristic(
            jrj_control, canonical_params, q0=0.0, rate0=0.1, t_end=200.0,
            dt=0.05)
        assert np.all(trajectory.queue >= 0.0)
        assert np.all(trajectory.rate >= 0.0)

    def test_under_loaded_start_probes_upwards(self, canonical_params,
                                               jrj_control):
        trajectory = integrate_characteristic(
            jrj_control, canonical_params, q0=0.0, rate0=0.2, t_end=10.0,
            dt=0.05)
        # With q below target the rate increases linearly at C0.
        assert trajectory.final_rate == pytest.approx(0.2 + 0.05 * 10.0, rel=0.01)

    def test_long_run_converges_to_limit_point(self, canonical_params,
                                               jrj_control):
        trajectory = integrate_characteristic(
            jrj_control, canonical_params, q0=0.0, rate0=0.5, t_end=1500.0,
            dt=0.05)
        assert trajectory.final_queue == pytest.approx(
            canonical_params.q_target, abs=1.0)
        assert trajectory.final_rate == pytest.approx(
            canonical_params.mu, abs=0.1)

    def test_growth_rate_helper(self, canonical_params, jrj_control):
        trajectory = integrate_characteristic(
            jrj_control, canonical_params, q0=0.0, rate0=0.5, t_end=5.0,
            dt=0.05)
        assert np.allclose(trajectory.growth_rate,
                           trajectory.rate - canonical_params.mu)

    def test_growth_rate_property_requires_mu(self, jrj_control):
        # The trajectory carries the service rate it was integrated with.
        params = SystemParameters(mu=1.5, q_target=10.0, c0=0.05, c1=0.2)
        trajectory = integrate_characteristic(
            jrj_control, params, q0=0.0, rate0=0.5, t_end=5.0, dt=0.05)
        assert trajectory.mu == 1.5
        assert np.array_equal(trajectory.growth_rate, trajectory.rate - 1.5)

    def test_ensemble_solution(self, canonical_params, jrj_control):
        initial_points = np.array([[0.0, 0.3], [2.0, 0.8], [5.0, 1.2]])
        batch = integrate_characteristic_batch(
            jrj_control, canonical_params, q0=initial_points[:, 0],
            rate0=initial_points[:, 1], t_end=50.0, dt=0.05)
        trajectories = batch.trajectories()
        assert len(trajectories) == 3
        for trajectory in trajectories:
            assert trajectory.times[-1] == pytest.approx(50.0)

    def test_queue_pinned_at_zero_when_under_loaded(self, canonical_params,
                                                    jrj_control):
        # Start with an empty queue and a rate far below service capacity.
        trajectory = integrate_characteristic(
            jrj_control, canonical_params, q0=0.0, rate0=0.0, t_end=5.0,
            dt=0.05)
        early = trajectory.queue[trajectory.times < 2.0]
        assert np.all(early <= 0.2)
