"""Unit tests for the ODE integrators."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, StabilityError
from repro.numerics.ode import (
    ODEResult,
    integrate_fixed,
    integrate_fixed_batch,
    rk4_step,
)


def exponential_decay(_t, state):
    return -state


def harmonic_oscillator(_t, state):
    return np.array([state[1], -state[0]])


class TestSingleSteps:
    def test_rk4_step_accuracy(self):
        dt = 0.1
        rk4 = rk4_step(exponential_decay, 0.0, np.array([1.0]), dt)[0]
        assert rk4 == pytest.approx(np.exp(-dt), abs=1e-7)


class TestIntegrateFixed:
    def test_exponential_decay_accuracy(self):
        result = integrate_fixed(exponential_decay, [1.0], t_end=2.0, dt=0.01)
        assert result.states[-1, 0] == pytest.approx(np.exp(-2.0), rel=1e-6)

    def test_harmonic_oscillator_energy_conserved(self):
        result = integrate_fixed(harmonic_oscillator, [1.0, 0.0], t_end=10.0,
                                 dt=0.01)
        energy = result.states[:, 0] ** 2 + result.states[:, 1] ** 2
        assert np.allclose(energy, 1.0, atol=1e-5)

    def test_projection_is_applied(self):
        result = integrate_fixed(lambda t, s: np.array([-10.0]), [1.0],
                                 t_end=1.0, dt=0.05,
                                 projection=lambda s: np.maximum(s, 0.0))
        assert np.all(result.states >= 0.0)

    @pytest.mark.parametrize("batched", [False, True])
    def test_last_step_is_shortened_to_end_at_t_end(self, batched):
        if batched:
            result = integrate_fixed_batch(
                lambda t, states: -states, [[1.0]], t_end=1.05, dt=0.1)
        else:
            result = integrate_fixed(exponential_decay, [1.0], t_end=1.05,
                                     dt=0.1)
        steps = np.diff(result.times)
        assert result.times[0] == 0.0 and result.times.size == 12
        assert result.times[-1] == pytest.approx(1.05, abs=1e-15)
        assert steps[-1] == pytest.approx(0.05, abs=1e-12)
        assert np.allclose(steps[:-1], 0.1, rtol=0.0, atol=1e-12)

    def test_result_helpers(self):
        result = integrate_fixed(exponential_decay, [1.0], t_end=1.0, dt=0.1)
        assert isinstance(result, ODEResult)
        assert result.times[-1] == pytest.approx(1.0)
        assert result.component(0).shape == result.times.shape
        resampled = result.resample(np.array([0.0, 0.5, 1.0]))
        assert resampled.shape == (3, 1)

    def test_invalid_dt_rejected(self):
        with pytest.raises(ConvergenceError):
            integrate_fixed(exponential_decay, [1.0], t_end=1.0, dt=0.0)

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ConvergenceError):
            integrate_fixed(exponential_decay, [1.0], t_end=0.0, dt=0.1)

    def test_nonfinite_state_detected(self):
        with pytest.raises(StabilityError):
            integrate_fixed(lambda t, s: s ** 3, [5.0], t_end=10.0, dt=0.5)
