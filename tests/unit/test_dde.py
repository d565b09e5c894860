"""Unit tests for the delay-differential-equation machinery."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError
from repro.numerics.dde import DelayBuffer, integrate_dde


class TestDelayBuffer:
    def test_lookup_before_history_returns_initial(self):
        buffer = DelayBuffer(0.0, [5.0])
        assert buffer.lookup(-3.0)[0] == 5.0

    def test_lookup_interpolates(self):
        buffer = DelayBuffer(0.0, [0.0])
        buffer.append(1.0, np.array([2.0]))
        assert buffer.lookup(0.5)[0] == pytest.approx(1.0)

    def test_lookup_after_latest_returns_latest(self):
        buffer = DelayBuffer(0.0, [0.0])
        buffer.append(1.0, np.array([4.0]))
        assert buffer.lookup(10.0)[0] == 4.0

    def test_rejects_decreasing_times(self):
        buffer = DelayBuffer(0.0, [0.0])
        buffer.append(1.0, np.array([1.0]))
        with pytest.raises(ValueError):
            buffer.append(0.5, np.array([2.0]))

    def test_length_counts_every_sample(self):
        buffer = DelayBuffer(0.0, [0.0])
        buffer.append(0.5, np.array([1.0]))
        buffer.append(1.5, np.array([2.0]))
        assert len(buffer) == 3


class TestIntegrateDDE:
    def test_zero_delay_matches_ode(self):
        # dx/dt = -x(t) with the "delayed" lookup at the current time.
        result = integrate_dde(lambda t, s, h: -h(t), [1.0], t_end=2.0, dt=0.01)
        assert result.states[-1, 0] == pytest.approx(np.exp(-2.0), rel=2e-2)

    def test_constant_history_phase(self):
        # dx/dt = -x(t - 1); for t < 1 the derivative is -x0 = -1, so the
        # solution is exactly 1 - t on [0, 1].
        result = integrate_dde(lambda t, s, h: -h(t - 1.0), [1.0], t_end=1.0,
                               dt=0.01)
        index = np.searchsorted(result.times, 0.5)
        assert result.states[index, 0] == pytest.approx(0.5, abs=1e-6)
        assert result.states[-1, 0] == pytest.approx(0.0, abs=1e-6)

    def test_delayed_negative_feedback_oscillates(self):
        # dx/dt = -x(t - tau) with a large enough tau produces oscillation
        # through zero, unlike the monotone undelayed decay.
        result = integrate_dde(lambda t, s, h: -h(t - 2.0), [1.0], t_end=20.0,
                               dt=0.01)
        assert np.min(result.states[:, 0]) < -0.05

    def test_projection_applied(self):
        result = integrate_dde(lambda t, s, h: np.array([-5.0]), [1.0],
                               t_end=2.0, dt=0.05,
                               projection=lambda s: np.maximum(s, 0.0))
        assert np.all(result.states >= 0.0)

    def test_component_accessor(self):
        result = integrate_dde(lambda t, s, h: np.array([1.0, -1.0]),
                               [0.0, 0.0], t_end=1.0, dt=0.1)
        assert result.component(0)[-1] == pytest.approx(1.0)
        assert result.component(1)[-1] == pytest.approx(-1.0)

    def test_invalid_dt_rejected(self):
        with pytest.raises(ConvergenceError):
            integrate_dde(lambda t, s, h: s, [1.0], t_end=1.0, dt=-0.1)
