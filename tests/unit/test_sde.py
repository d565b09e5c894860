"""Unit tests for the stochastic integrators."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError
from repro.numerics.sde import euler_maruyama


def zero_drift(_t, states):
    return np.zeros_like(states)


def unit_diffusion(_t, states):
    return np.ones_like(states)


class TestEulerMaruyama:
    def test_brownian_motion_moments(self, rng):
        t_end = 1.0
        paths = euler_maruyama(zero_drift, unit_diffusion, np.array([0.0]),
                               t_end=t_end, dt=0.01, n_paths=4000, rng=rng)
        final = paths.final_states[:, 0]
        assert np.mean(final) == pytest.approx(0.0, abs=0.06)
        assert np.var(final) == pytest.approx(t_end, rel=0.1)

    def test_deterministic_limit(self, rng):
        # With zero diffusion the scheme reduces to forward Euler on dx/dt = -x.
        paths = euler_maruyama(lambda t, s: -s, lambda t, s: np.zeros_like(s),
                               np.array([1.0]), t_end=1.0, dt=0.001,
                               n_paths=3, rng=rng)
        assert np.allclose(paths.final_states[:, 0], np.exp(-1.0), rtol=1e-2)

    def test_projection_keeps_paths_non_negative(self, rng):
        paths = euler_maruyama(zero_drift, unit_diffusion, np.array([0.1]),
                               t_end=1.0, dt=0.01, n_paths=200, rng=rng,
                               projection=lambda s: np.maximum(s, 0.0))
        assert np.all(paths.paths >= 0.0)

    def test_record_every_thins_snapshots(self, rng):
        dense = euler_maruyama(zero_drift, unit_diffusion, np.array([0.0]),
                               t_end=1.0, dt=0.01, n_paths=5, rng=rng)
        thinned = euler_maruyama(zero_drift, unit_diffusion, np.array([0.0]),
                                 t_end=1.0, dt=0.01, n_paths=5,
                                 rng=np.random.default_rng(0), record_every=10)
        assert thinned.times.size < dense.times.size
        assert thinned.times[-1] == pytest.approx(1.0)

    def test_helpers(self, rng):
        paths = euler_maruyama(zero_drift, unit_diffusion, np.array([0.0, 1.0]),
                               t_end=0.5, dt=0.05, n_paths=7, rng=rng)
        assert paths.n_paths == 7
        assert paths.component(1).shape == (paths.times.size, 7)
        assert paths.mean(1)[0] == pytest.approx(1.0)
        assert paths.variance(1)[0] == pytest.approx(0.0)

    def test_invalid_arguments(self, rng):
        with pytest.raises(ConvergenceError):
            euler_maruyama(zero_drift, unit_diffusion, np.array([0.0]),
                           t_end=1.0, dt=0.0, n_paths=10, rng=rng)
        with pytest.raises(ConvergenceError):
            euler_maruyama(zero_drift, unit_diffusion, np.array([0.0]),
                           t_end=1.0, dt=0.1, n_paths=0, rng=rng)

    def test_geometric_brownian_motion_mean(self, rng):
        # dX = 0.05 X dt + 0.2 X dW has E[X(t)] = X0 exp(0.05 t).
        mu_gbm, sigma_gbm, t_end = 0.05, 0.2, 1.0
        paths = euler_maruyama(lambda t, s: mu_gbm * s,
                               lambda t, s: sigma_gbm * s, np.array([1.0]),
                               t_end=t_end, dt=0.005, n_paths=4000, rng=rng)
        assert np.mean(paths.final_states[:, 0]) == pytest.approx(
            np.exp(mu_gbm * t_end), rel=0.05)

    def test_ornstein_uhlenbeck_stationary_variance(self, rng):
        # dX = -theta X dt + s dW relaxes to variance s**2 / (2 theta).
        theta, noise = 1.0, 0.5
        paths = euler_maruyama(lambda t, s: -theta * s,
                               lambda t, s: noise * np.ones_like(s),
                               np.array([0.0]), t_end=5.0, dt=0.01,
                               n_paths=4000, rng=rng)
        assert np.var(paths.final_states[:, 0]) == pytest.approx(
            noise ** 2 / (2.0 * theta), rel=0.1)
