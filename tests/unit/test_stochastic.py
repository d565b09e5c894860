"""Unit tests for the Langevin model and ensemble comparison."""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    FokkerPlanckSolver,
    GridParameters,
    JRJControl,
    LangevinModel,
    SystemParameters,
    TimeParameters,
    compare_with_density,
    run_ensemble,
)
from repro.exceptions import AnalysisError


class TestLangevinModel:
    def test_zero_sigma_reduces_to_characteristic(self, canonical_params,
                                                  jrj_control, rng):
        model = LangevinModel(jrj_control, canonical_params)
        paths = model.simulate(q0=0.0, rate0=0.5, t_end=100.0, dt=0.02,
                               n_paths=5, rng=rng)
        # All particles follow the same deterministic path.
        spread = np.max(paths.final_states[:, 0]) - np.min(paths.final_states[:, 0])
        assert spread < 1e-9

    def test_paths_stay_non_negative(self, noisy_params, jrj_control, rng):
        model = LangevinModel(jrj_control, noisy_params)
        paths = model.simulate(q0=0.0, rate0=0.5, t_end=50.0, dt=0.02,
                               n_paths=200, rng=rng)
        assert np.all(paths.paths >= 0.0)

    def test_positive_sigma_spreads_the_ensemble(self, noisy_params,
                                                 jrj_control, rng):
        model = LangevinModel(jrj_control, noisy_params)
        paths = model.simulate(q0=0.0, rate0=0.5, t_end=60.0, dt=0.02,
                               n_paths=500, rng=rng)
        assert np.std(paths.final_states[:, 0]) > 0.5

    def test_negative_delay_rejected(self, canonical_params, jrj_control):
        with pytest.raises(ValueError):
            LangevinModel(jrj_control, canonical_params, feedback_delay=-1.0)

    def test_delayed_particles_keep_oscillating(self, canonical_params,
                                                jrj_control, rng):
        model = LangevinModel(jrj_control, canonical_params, feedback_delay=5.0)
        paths = model.simulate(q0=0.0, rate0=0.5, t_end=300.0, dt=0.02,
                               n_paths=20, rng=rng)
        queue_mean = paths.mean(0)
        tail = queue_mean[-int(0.3 * queue_mean.size):]
        assert np.max(tail) - np.min(tail) > 2.0


class TestShardedEnsemble:
    def test_shard_sizes_partition_paths(self):
        from repro.stochastic import shard_sizes

        assert shard_sizes(10, 3) == [4, 3, 3]
        assert shard_sizes(8, 4) == [2, 2, 2, 2]
        assert sum(shard_sizes(101, 7)) == 101
        # More shards than paths degrades gracefully.
        assert shard_sizes(2, 5) == [1, 1]

    def test_shard_sizes_validation(self):
        from repro.exceptions import ConfigurationError
        from repro.stochastic import shard_sizes

        with pytest.raises(ConfigurationError):
            shard_sizes(0, 2)
        with pytest.raises(ConfigurationError):
            shard_sizes(5, 0)

    def test_seeded_ensemble_reproducible(self, noisy_params, jrj_control):
        first = run_ensemble(jrj_control, noisy_params, q0=0.0, rate0=0.5,
                             t_end=10.0, dt=0.05, n_paths=40, seed=123)
        second = run_ensemble(jrj_control, noisy_params, q0=0.0, rate0=0.5,
                              t_end=10.0, dt=0.05, n_paths=40, seed=123)
        np.testing.assert_array_equal(first.paths.paths, second.paths.paths)

    def test_shard_streams_order_independent(self, noisy_params, jrj_control):
        from repro.queueing import child_seed_sequence
        from repro.stochastic.ensemble import (DEFAULT_SHARDS,
                                               _simulate_shard, shard_sizes)

        n_paths, n_shards, seed = 40, DEFAULT_SHARDS, 123
        combined = run_ensemble(jrj_control, noisy_params, q0=0.0, rate0=0.5,
                                t_end=10.0, dt=0.05, n_paths=n_paths,
                                seed=seed)
        # Shard 2 recomputed in isolation (no siblings ever created) must
        # reproduce its slice of the combined ensemble exactly.
        sizes = shard_sizes(n_paths, n_shards)
        alone, _ = _simulate_shard(jrj_control, noisy_params, 0.0, 0.5, 10.0,
                                   0.05, sizes[2], 0.0,
                                   child_seed_sequence(seed, ("ensemble", 2)))
        start = sum(sizes[:2])
        np.testing.assert_array_equal(
            combined.paths.paths[:, start:start + sizes[2], :], alone.paths)

    def test_seed_and_rng_are_exclusive(self, noisy_params, jrj_control, rng):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_ensemble(jrj_control, noisy_params, q0=0.0, rate0=0.5,
                         t_end=5.0, n_paths=10, seed=1, rng=rng)


class TestEnsembleHealth:
    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("mode", ["off", "observe"])
    def test_policy_comes_from_the_parameters(self, noisy_params,
                                              jrj_control, mode, seed):
        params = replace(noisy_params, health=mode)
        ensemble = run_ensemble(jrj_control, params, q0=0.0, rate0=0.5,
                                t_end=2.0, dt=0.05, n_paths=16, seed=seed,
                                rng=None if seed else np.random.default_rng(3))
        if mode == "off":
            assert ensemble.health is None
        else:
            assert ensemble.health.mode == "observe"
            assert ensemble.health.n_reports == 0


class TestEnsembleHelpers:
    def test_run_ensemble_summary_properties(self, noisy_params, jrj_control,
                                             rng):
        ensemble = run_ensemble(jrj_control, noisy_params, q0=0.0, rate0=0.5,
                                t_end=40.0, dt=0.02, n_paths=300, rng=rng)
        assert ensemble.times[-1] == pytest.approx(40.0, abs=0.1)
        assert ensemble.mean_queue_series.shape == ensemble.times.shape
        assert ensemble.std_queue_series.shape == ensemble.times.shape
        assert 0.0 <= ensemble.overflow_probability(5.0) <= 1.0

    def test_final_queue_density_normalised(self, noisy_params, jrj_control,
                                            rng):
        ensemble = run_ensemble(jrj_control, noisy_params, q0=0.0, rate0=0.5,
                                t_end=40.0, dt=0.02, n_paths=500, rng=rng)
        edges = np.linspace(0.0, 30.0, 31)
        centers, density = ensemble.final_queue_density(edges)
        assert np.sum(density) * (edges[1] - edges[0]) == pytest.approx(1.0,
                                                                        rel=1e-6)

    def test_compare_with_density_requires_matching_horizon(self, noisy_params,
                                                            jrj_control, rng):
        grid = GridParameters(q_max=30.0, nq=60, v_min=-1.2, v_max=1.2, nv=48)
        solver = FokkerPlanckSolver(noisy_params, jrj_control, grid_params=grid)
        fp = solver.solve_from_point(0.0, 0.5,
                                     TimeParameters(t_end=30.0, dt=0.5,
                                                    snapshot_every=10))
        ensemble = run_ensemble(jrj_control, noisy_params, q0=0.0, rate0=0.5,
                                t_end=100.0, dt=0.02, n_paths=100, rng=rng)
        with pytest.raises(AnalysisError):
            compare_with_density(ensemble, fp)

    def test_compare_with_density_reports_small_differences(self, jrj_control,
                                                            rng):
        params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2,
                                  sigma=0.5)
        grid = GridParameters(q_max=40.0, nq=100, v_min=-1.5, v_max=1.5, nv=60)
        solver = FokkerPlanckSolver(params, jrj_control, grid_params=grid)
        fp = solver.solve_from_point(0.0, 0.5,
                                     TimeParameters(t_end=120.0, dt=0.5,
                                                    snapshot_every=20))
        ensemble = run_ensemble(jrj_control, params, q0=0.0, rate0=0.5,
                                t_end=120.0, dt=0.02, n_paths=2000, rng=rng)
        comparison = compare_with_density(ensemble, fp)
        assert comparison["mean_queue_difference"] < 1.5
        assert comparison["std_queue_difference"] < 1.5
        assert comparison["marginal_l1_distance"] < 0.6
