"""Unit tests for the columnar trace data plane (repro.dataplane).

Covers the columnar storage of ``TimeSeriesTrace``, the streaming
accumulators, the retention
policies threaded through the simulators / ensembles / design sweep, and
the golden bit-identity of ``retention="full"`` against the frozen seed
traces.
"""

import math
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro import SystemParameters
from repro.control.jrj import jrj_from_parameters
from repro.dataplane import (
    MomentsTraceSink,
    NullTraceSink,
    StreamingHistogram,
    StreamingMoments,
    TimeWeightedMoments,
    validate_retention,
)
from repro.exceptions import AnalysisError, ConfigurationError
from repro.queueing import MultiHopSimulator, Simulator
from repro.queueing import trace as trace_module
from repro.queueing.multihop import parking_lot_scenario
from repro.queueing.scenarios import dumbbell_scenario
from repro.queueing.trace import SimulationTrace, TimeSeriesTrace
from repro.stochastic.ensemble import run_ensemble
from repro.workloads.scenarios import packet_level_jrj_scenario
from seed_stats import WeightedStatistics
from seed_stats import empirical_density as seed_empirical_density
from seed_stats import time_average as seed_time_average

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / \
    "golden_des_trace.npz"


class TestColumnarTrace:
    """The columnar storage of ``TimeSeriesTrace``.

    Its columns start at 1,024 samples and double when full, so 3,000
    appends grow them twice.
    """

    def test_growth_preserves_exact_floats(self):
        trace = TimeSeriesTrace("q")
        times = np.random.default_rng(0).uniform(0.0, 1.0, 3000)
        times.sort()
        values = np.random.default_rng(1).standard_normal(3000)
        for t, v in zip(times, values, strict=True):
            trace.append(float(t), float(v))
        assert len(trace) == 3000
        assert np.array_equal(trace.times, times)
        assert np.array_equal(trace.values, values)
        assert trace.last_value() == values[-1]

    def test_views_are_read_only(self):
        trace = TimeSeriesTrace("q")
        trace.append(0.0, 1.0)
        with pytest.raises(ValueError):
            trace.times[0] = 5.0
        with pytest.raises(ValueError):
            trace.values[0] = 5.0

    def test_memmap_backing_matches_ram(self, tmp_path):
        ram = TimeSeriesTrace("q")
        disk = TimeSeriesTrace("q", memmap_dir=str(tmp_path))
        for i in range(3000):
            ram.append(0.1 * i, float(i) ** 0.5)
            disk.append(0.1 * i, float(i) ** 0.5)
        assert np.array_equal(ram.times, disk.times)
        assert np.array_equal(ram.values, disk.values)
        assert isinstance(disk.times, np.memmap)
        assert isinstance(disk.values, np.memmap)
        assert not isinstance(ram.times, np.memmap)
        assert not isinstance(ram.values, np.memmap)
        # Each backing file is unlinked as soon as it is mapped.
        assert list(tmp_path.iterdir()) == []

    def test_empty_trace(self):
        trace = TimeSeriesTrace("q")
        assert len(trace) == 0
        assert trace.times.size == 0
        assert trace.values.size == 0
        assert trace.last_value() == 0.0

    @pytest.mark.parametrize("backing", ["ram", "memmap"])
    def test_views_taken_before_growth_keep_their_samples(self, tmp_path,
                                                          backing):
        memmap_dir = str(tmp_path) if backing == "memmap" else None
        trace = TimeSeriesTrace("q", memmap_dir=memmap_dir)
        for i in range(1000):
            trace.append(float(i), float(-i))
        times, values = trace.times, trace.values
        for i in range(1000, 3000):
            trace.append(float(i), float(-i))
        expected = np.arange(1000, dtype=float)
        assert np.array_equal(times, expected)
        assert np.array_equal(values, -expected)
        assert np.array_equal(trace.times[:1000], expected)
        assert np.array_equal(trace.values, -np.arange(3000, dtype=float))

    def test_missing_memmap_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError,
                           match="memmap directory does not exist"):
            TimeSeriesTrace("q", memmap_dir=str(tmp_path / "absent"))


class TestRecordTolerance:
    def test_relative_tolerance_at_large_times(self):
        # The seed's absolute -1e-12 tolerance would reject a 1e-10 jitter
        # at t ~ 1e9; the relative tolerance (1e-12 of the time scale)
        # accepts it, holding long runs to the same effective precision.
        trace = TimeSeriesTrace("q")
        trace.record(1.0e9, 1.0)
        trace.record(1.0e9 - 1.0e-10, 2.0)
        assert len(trace) == 2

    def test_genuinely_out_of_order_rejected(self):
        trace = TimeSeriesTrace("q")
        trace.record(1.0e9, 1.0)
        with pytest.raises(AnalysisError):
            trace.record(1.0e9 - 1.0, 2.0)

    def test_small_time_scale_keeps_strictness(self):
        trace = TimeSeriesTrace("q")
        trace.record(2.0, 1.0)
        with pytest.raises(AnalysisError):
            trace.record(1.0, 2.0)

    @pytest.mark.parametrize("sink_type", [MomentsTraceSink, NullTraceSink])
    def test_streamed_sinks_share_the_check(self, sink_type):
        sink = sink_type("q")
        sink.record(1.0e9, 1.0)
        sink.record(1.0e9 - 1.0e-10, 2.0)
        with pytest.raises(AnalysisError, match="trace 'q' received "
                           "out-of-order time"):
            sink.record(1.0e9 - 1.0, 3.0)
        assert len(sink) == 2


class TestStreamingMoments:
    def test_matches_numpy_reference(self):
        samples = np.random.default_rng(7).standard_normal(500)
        moments = StreamingMoments()
        for sample in samples:
            moments.update(float(sample))
        assert moments.count == 500
        assert math.isclose(float(moments.mean), float(np.mean(samples)),
                            rel_tol=1e-12)
        assert math.isclose(float(moments.variance),
                            float(np.var(samples)), rel_tol=1e-12)
        assert float(moments.minimum) == float(np.min(samples))
        assert float(moments.maximum) == float(np.max(samples))

    def test_std_matches_numpy(self, rng):
        samples = rng.normal(3.0, 2.0, 500)
        moments = StreamingMoments()
        for sample in samples:
            moments.update(float(sample))
        assert float(moments.std) == pytest.approx(np.std(samples))

    def test_empty_accumulator(self):
        moments = StreamingMoments()
        assert moments.count == 0
        assert float(moments.mean) == 0.0
        assert float(moments.variance) == 0.0

    def test_single_sample(self):
        moments = StreamingMoments()
        moments.update(7.0)
        assert float(moments.mean) == 7.0
        assert float(moments.variance) == 0.0
        assert float(moments.minimum) == float(moments.maximum) == 7.0

    def test_merge_equals_pooled(self):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal(300), rng.standard_normal(170) + 2.0
        left, right = StreamingMoments(), StreamingMoments()
        left.update_batch(a)
        right.update_batch(b)
        left.merge(right)
        pooled = np.concatenate([a, b])
        assert math.isclose(float(left.mean), float(np.mean(pooled)),
                            rel_tol=1e-12)
        assert math.isclose(float(left.variance), float(np.var(pooled)),
                            rel_tol=1e-12)

    def test_merge_into_empty_is_verbatim_copy(self):
        samples = np.random.default_rng(3).standard_normal(64)
        block = StreamingMoments()
        block.update_batch(samples)
        empty = StreamingMoments()
        empty.merge(block)
        assert float(empty.mean) == float(block.mean)
        assert float(empty.m2) == float(block.m2)

class TestStreamingHistogram:
    def test_counts_and_overflow(self):
        edges = np.array([0.0, 1.0, 2.0])
        histogram = StreamingHistogram(edges)
        histogram.update(np.array([-0.5, 0.5, 1.5, 2.5, 1.0, 2.0]))
        assert histogram.underflow == 1
        assert histogram.overflow == 1
        assert histogram.total == 6

    @staticmethod
    def _density(samples, edges):
        histogram = StreamingHistogram(edges)
        histogram.update(samples)
        return histogram.density()

    def test_density_integrates_to_one(self, rng):
        samples = rng.normal(5.0, 1.0, 10000)
        edges = np.linspace(0.0, 10.0, 51)
        centers, density = self._density(samples, edges)
        assert centers.size == 50
        widths = np.diff(edges)
        assert np.sum(density * widths) == pytest.approx(1.0, rel=1e-6)

    def test_density_matches_gaussian_shape(self, rng):
        samples = rng.normal(0.0, 1.0, 50000)
        edges = np.linspace(-4.0, 4.0, 81)
        centers, density = self._density(samples, edges)
        expected = np.exp(-0.5 * centers ** 2) / np.sqrt(2.0 * np.pi)
        assert np.max(np.abs(density - expected)) < 0.03

    def test_density_without_samples_in_range_raises(self):
        with pytest.raises(AnalysisError):
            self._density(np.array([100.0]), np.linspace(0.0, 1.0, 5))

    @pytest.mark.parametrize("edges", [[0.0, 5.0, 2.0, 10.0], [0.0]],
                             ids=["non-increasing", "too-few"])
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(ConfigurationError):
            StreamingHistogram(np.array(edges))


class TestTimeWeightedMoments:
    def test_matches_weighted_statistics_bitwise(self):
        rng = np.random.default_rng(9)
        pairs = [(float(v), float(w)) for v, w in
                 zip(rng.standard_normal(100), rng.random(100) + 0.01,
                     strict=True)]
        reference = WeightedStatistics()
        streamed = TimeWeightedMoments()
        for value, weight in pairs:
            reference.update(value, weight)
            streamed.update(value, weight)
        assert float(streamed.mean) == float(reference.mean)
        assert float(streamed.variance) == float(reference.variance)

    def test_uniform_weights_match_plain_mean(self):
        values = [1.0, 2.0, 3.0, 4.0]
        stats = TimeWeightedMoments()
        for value in values:
            stats.update(value, 1.0)
        assert stats.mean == pytest.approx(np.mean(values))
        assert stats.variance == pytest.approx(np.var(values))

    def test_time_average_semantics(self):
        # Value 0 for 9 time units, value 10 for 1 time unit -> average 1.
        stats = TimeWeightedMoments()
        stats.update(0.0, 9.0)
        stats.update(10.0, 1.0)
        assert stats.mean == pytest.approx(1.0)

    def test_zero_weight_ignored(self):
        stats = TimeWeightedMoments()
        stats.update(100.0, 0.0)
        assert stats.mean == 0.0

    def test_negative_weight_rejected(self):
        stats = TimeWeightedMoments()
        with pytest.raises(AnalysisError):
            stats.update(1.0, -1.0)

    def test_zero_weights_skipped_like_the_seed_fold(self):
        rng = np.random.default_rng(17)
        weights = rng.random(60)
        weights[::3] = 0.0
        reference = WeightedStatistics()
        streamed = TimeWeightedMoments()
        for value, weight in zip(rng.standard_normal(60), weights,
                                 strict=True):
            reference.update(float(value), float(weight))
            streamed.update(float(value), float(weight))
        assert streamed.mean == reference.mean
        assert streamed.std == float(np.sqrt(reference.variance))

    def test_copy_is_independent(self):
        stats = TimeWeightedMoments()
        stats.update(2.0, 1.0)
        snapshot = stats.copy()
        stats.update(10.0, 3.0)
        assert snapshot.mean == 2.0
        assert stats.mean == pytest.approx(8.0)

class TestTraceSinks:
    def test_all_sinks_share_one_surface(self):
        # The simulator binds these without knowing the retention policy.
        for sink_type in (TimeSeriesTrace, MomentsTraceSink, NullTraceSink):
            for member in ("record", "append", "__len__", "times",
                           "values", "time_average"):
                assert hasattr(sink_type, member), (sink_type, member)

    def test_moments_sink_time_average_matches_full(self):
        full = TimeSeriesTrace("q")
        streamed = MomentsTraceSink("q")
        rng = np.random.default_rng(21)
        t = 0.0
        for step in rng.random(300):
            value = float(rng.integers(0, 20))
            full.record(t, value)
            streamed.record(t, value)
            t += float(step)
        horizon = t + 0.5
        assert streamed.time_average(0.0, horizon) == \
            full.time_average(0.0, horizon)

    def test_moments_sink_rejects_partial_window(self):
        sink = MomentsTraceSink("q")
        sink.record(0.0, 1.0)
        sink.record(5.0, 2.0)
        with pytest.raises(AnalysisError):
            sink.time_average(1.0, 10.0)

    def test_null_sink_keeps_counters_only(self):
        sink = NullTraceSink("q")
        sink.record(0.0, 3.0)
        sink.record(1.0, 4.0)
        assert len(sink) == 2
        assert sink.last_value() == 4.0
        with pytest.raises(AnalysisError):
            sink.time_average(0.0, 1.0)
        with pytest.raises(AnalysisError):
            _ = sink.times

    def test_invalid_retention_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_retention("everything")
        with pytest.raises(ConfigurationError):
            SimulationTrace(retention="bogus")


class TestSimulationTraceRetention:
    SCENARIOS = {
        "jrj-2": (lambda: packet_level_jrj_scenario(
            n_sources=2, service_rate=10.0, seed=3), 30.0),
        "dumbbell-64": (lambda: dumbbell_scenario(n_sources=64, seed=11),
                        40.0),
    }

    def _run(self, retention, scenario="jrj-2"):
        build, duration = self.SCENARIOS[scenario]
        return Simulator(build(), retention=retention).run(duration=duration)

    def test_counters_identical_across_policies(self):
        full = self._run("full")
        for retention in ("moments", "none"):
            other = self._run(retention)
            assert other.trace.deliveries == full.trace.deliveries
            assert other.trace.losses == full.trace.losses
            assert other.throughputs == full.throughputs

    @pytest.mark.parametrize("scenario", ["jrj-2", "dumbbell-64"])
    def test_moments_mean_queue_bit_identical(self, scenario):
        full = self._run("full", scenario)
        queue = full.trace.queue_length
        # full.mean_queue is the full-history time_average(0, duration).
        assert full.mean_queue == seed_time_average(
            queue.times, queue.values, 0.0, full.duration)
        assert self._run("moments", scenario).mean_queue == full.mean_queue

    @staticmethod
    def _long_series(edge_ties=False):
        """A series over two blocks of the time-average fold, inside (1, 400).

        With *edge_ties* the samples on either side of the first block
        edge share one time, so both intervals touching the edge have
        zero width.
        """
        block = trace_module._FOLD_BLOCK
        rng = np.random.default_rng(24)
        times = 1.0 + np.cumsum(rng.exponential(0.01, 2 * block + 777))
        if edge_ties:
            times[block - 1:block + 2] = times[block - 1]
        assert times[-1] < 400.0
        series = TimeSeriesTrace("long")
        for time, value in zip(times.tolist(),
                               rng.uniform(0.0, 40.0, times.size).tolist(),
                               strict=True):
            series.record(time, value)
        return series

    @pytest.mark.parametrize("series, window", [
        ("run", (0.0, None)), ("run", (5.0, 17.3)), ("run", (12.5, 45.0)),
        ("long", (0.0, None)), ("edge-ties", (0.0, None)),
        ("long", (0.5, 400.0)),
    ], ids=["to-last-sample", "interior", "past-the-end",
            "over-two-blocks", "zero-width-at-block-edge",
            "beyond-both-ends"])
    def test_windowed_time_average_matches_seed_fold(self, series, window):
        queue = (self._run("full").trace.queue_length if series == "run"
                 else self._long_series(edge_ties=series == "edge-ties"))
        t_start, t_end = window
        fold_end = float(queue.times[-1]) if t_end is None else t_end
        assert queue.time_average(t_start, t_end) == seed_time_average(
            queue.times, queue.values, t_start, fold_end)

    def test_small_blocks_match_seed_fold_on_random_series(self,
                                                           monkeypatch):
        # Tiny blocks put many block edges, ties and window edges into
        # short series.
        monkeypatch.setattr(trace_module, "_FOLD_BLOCK", 4)
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            steps = rng.exponential(1.0, n) * (rng.random(n) < 0.7)
            times = rng.uniform(-5.0, 5.0) + np.cumsum(steps)
            series = TimeSeriesTrace("random")
            for time, value in zip(times.tolist(),
                                   rng.uniform(-10.0, 50.0, n).tolist(),
                                   strict=True):
                series.record(time, value)
            t_start = float(rng.uniform(times[0] - 2.0, times[-1] + 1.0))
            t_end = t_start + float(rng.exponential(5.0)) + 1e-3
            assert series.time_average(t_start, t_end) == seed_time_average(
                series.times, series.values, t_start, t_end)

    def test_window_inside_one_interval_is_its_value(self):
        queue = self._run("full").trace.queue_length
        gaps = np.diff(queue.times)
        index = int(np.argmax(gaps))
        start = float(queue.times[index]) + 0.25 * float(gaps[index])
        end = float(queue.times[index]) + 0.75 * float(gaps[index])
        assert queue.time_average(start, end) == float(queue.values[index])

    def test_none_raises_on_history(self):
        result = self._run("none")
        with pytest.raises(AnalysisError):
            _ = result.mean_queue

    def test_multihop_none_reports_nan_means(self):
        config = parking_lot_scenario(n_extra_hops=1, seed=5)
        result = MultiHopSimulator(config, retention="none").run(30.0)
        assert all(math.isnan(v) for v in result.node_mean_queue.values())


@pytest.mark.skipif(not GOLDEN_PATH.exists(),
                    reason="golden trace fixture missing")
class TestGoldenBitIdentity:
    """``retention="full"`` must reproduce the frozen seed traces exactly."""

    def test_single_bottleneck_traces(self):
        golden = np.load(GOLDEN_PATH)
        config = packet_level_jrj_scenario(n_sources=2, service_rate=10.0,
                                           seed=3)
        result = Simulator(config).run(duration=60.0)
        queue = result.trace.queue_length
        assert np.array_equal(queue.times, golden["queue_times"])
        assert np.array_equal(queue.values, golden["queue_values"])
        rate0 = result.trace.rate_trace(0)
        assert np.array_equal(rate0.times, golden["rate0_times"])
        assert np.array_equal(rate0.values, golden["rate0_values"])
        assert result.mean_queue == float(golden["mean_queue_length"])

    def test_multihop_node_means(self):
        golden = np.load(GOLDEN_PATH)
        config = parking_lot_scenario(n_extra_hops=2, seed=5)
        result = MultiHopSimulator(config).run(80.0)
        means = np.array([result.node_mean_queue[node]
                          for node in sorted(result.node_mean_queue)])
        assert np.array_equal(means, golden["mh_node_means"])


class TestEnsembleRetention:
    def _ensembles(self, **kwargs):
        params = SystemParameters(sigma=0.4)
        control = jrj_from_parameters(params)
        common = dict(q0=0.0, rate0=0.5, t_end=6.0, dt=0.02, n_paths=120,
                      seed=42)
        common.update(kwargs)
        return params, control, common

    def test_moments_match_full_within_gate(self):
        params, control, common = self._ensembles()
        full = run_ensemble(control, params, **common)
        streamed = run_ensemble(control, params, retention="moments",
                                **common)
        assert np.max(np.abs(streamed.mean_queue_series
                             - full.mean_queue_series)) <= 1e-12
        assert np.max(np.abs(streamed.std_queue_series
                             - full.std_queue_series)) <= 1e-12
        assert np.max(np.abs(streamed.stats.moments.mean[:, 1]
                             - full.paths.mean(1))) <= 1e-12
        assert np.array_equal(streamed.final_queue_samples(),
                              full.final_queue_samples())
        threshold = 2.0 * params.q_target
        assert streamed.overflow_probability(threshold) == \
            full.overflow_probability(threshold)

    def test_moments_peak_memory_below_full_path_array(self):
        # Each shard is folded and dropped, so the streamed working set is
        # one shard's path block plus the accumulators: it must stay below
        # the full history that retention="full" returns.
        params, control, common = self._ensembles(t_end=10.0, dt=0.05,
                                                  n_paths=8000)
        tracemalloc.start()
        try:
            run_ensemble(control, params, retention="moments", **common)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full = run_ensemble(control, params, **common)
        assert peak < full.paths.paths.nbytes

    def test_full_memmap_bit_identical(self, tmp_path):
        params, control, common = self._ensembles()
        ram = run_ensemble(control, params, **common)
        disk = run_ensemble(control, params, memmap_dir=str(tmp_path),
                            **common)
        assert np.array_equal(ram.paths.paths, disk.paths.paths)

    def test_none_keeps_exact_overflow_counters(self):
        params, control, common = self._ensembles()
        full = run_ensemble(control, params, **common)
        threshold = 2.0 * params.q_target
        none = run_ensemble(control, params, retention="none", **common)
        assert none.overflow_probability(threshold) == \
            full.overflow_probability(threshold)
        with pytest.raises(AnalysisError):
            none.final_queue_samples()

    def test_none_counts_only_twice_the_target(self):
        params, control, common = self._ensembles()
        none = run_ensemble(control, params, retention="none", **common)
        assert list(none.stats.overflow_counts) == [2.0 * params.q_target]
        with pytest.raises(AnalysisError, match=r"2\*q_target"):
            none.overflow_probability(params.q_target)

    def test_none_keeps_no_final_density(self):
        params, control, common = self._ensembles()
        none = run_ensemble(control, params, retention="none", **common)
        with pytest.raises(AnalysisError, match="retention='none'"):
            none.final_queue_density(np.linspace(0.0, 20.0, 11))

    @pytest.mark.parametrize("retention", ["full", "moments"])
    def test_final_queue_density_matches_seed_histogram(self, retention):
        params, control, common = self._ensembles()
        result = run_ensemble(control, params, retention=retention, **common)
        edges = np.linspace(0.0, 2.0 * params.q_target, 21)
        centers, density = result.final_queue_density(edges)
        expected_centers, expected_density = seed_empirical_density(
            result.final_queue_samples(), edges)
        assert np.array_equal(centers, expected_centers)
        assert np.array_equal(density, expected_density)

    @pytest.mark.parametrize("edges", [[0.0, 5.0, 2.0, 10.0], [0.0]],
                             ids=["non-increasing", "too-few"])
    @pytest.mark.parametrize("retention", ["full", "moments"])
    def test_final_queue_density_rejects_bad_edges(self, retention, edges):
        params, control, common = self._ensembles()
        result = run_ensemble(control, params, retention=retention, **common)
        with pytest.raises(ConfigurationError):
            result.final_queue_density(np.array(edges))

    def test_streamed_retention_requires_seed(self):
        params = SystemParameters(sigma=0.4)
        control = jrj_from_parameters(params)
        with pytest.raises(ConfigurationError):
            run_ensemble(control, params, q0=0.0, rate0=0.5, t_end=2.0,
                         n_paths=10, retention="moments")

class TestDesignRetention:
    def _sweep(self, retention):
        from repro.design import design_gains
        params = SystemParameters()
        return design_gains(
            params, [0.025, 0.05, 0.1], [0.1, 0.2, 0.4], [8.0, 12.0], [1.0],
            top_k=4, chunk_size=5, t_end=30.0, dt=0.1, refine=False,
            retention=retention)

    @staticmethod
    def _same_gains(left, right):
        assert len(left) == len(right)
        for a, b in zip(left, right, strict=True):
            for (key, x), (_, y) in zip(sorted(asdict(a).items()),
                                        sorted(asdict(b).items()),
                                        strict=True):
                if isinstance(x, float) and math.isnan(x):
                    assert math.isnan(y), key
                else:
                    assert x == y, key

    def test_moments_matches_full(self):
        full = self._sweep("full")
        streamed = self._sweep("moments")
        self._same_gains(full.ranked, streamed.ranked)
        self._same_gains(full.pareto, streamed.pareto)
        assert full.score_stats == streamed.score_stats
        assert streamed.retention == "moments"

    def test_score_stats_reported(self):
        stats = self._sweep("full").score_stats
        assert stats is not None
        assert stats["count"] == 18
        assert stats["min"] <= stats["mean"] <= stats["max"]


class TestExperimentMatrices:
    def test_retention_threads_into_job_overrides(self):
        from repro.runner.experiments import get_matrix
        definition = get_matrix("ensemble-grid")
        assert definition.supports_retention
        jobs = definition.build(SystemParameters(), None, None,
                                retention="moments")
        assert all(dict(job.overrides)["retention"] == "moments"
                   for job in jobs)

    def test_default_build_keeps_seed_cache_keys(self):
        # Omitting the knobs must leave the job content hash unchanged, so
        # previously cached campaigns stay valid.
        from repro.runner.experiments import get_matrix
        definition = get_matrix("ensemble-grid")
        plain = definition.build(SystemParameters(), None, None)
        explicit = definition.build(SystemParameters(), None, None,
                                    retention="full", memmap_dir=None)
        assert [job.key for job in plain] == [job.key for job in explicit]


class TestCLIDataplaneFlags:
    def test_flags_share_wording_across_subcommands(self):
        from repro.cli import build_parser
        parser = build_parser()
        helps = {}
        for path in (["ensemble"], ["run"], ["design", "sweep"]):
            subparser = parser
            for name in path:
                subparser = subparser._subparsers._group_actions[0] \
                    .choices[name]
            actions = {action.dest: action.help
                       for action in subparser._actions}
            assert "retention" in actions and "memmap_dir" in actions
            helps[" ".join(path)] = (actions["retention"],
                                     actions["memmap_dir"])
        assert len(set(helps.values())) == 1

    def test_unsupported_matrix_rejects_retention(self, capsys):
        from repro.cli import main
        code = main(["run", "density-grid", "--retention", "moments",
                     "--no-cache"])
        assert code == 2
        assert "does not support" in capsys.readouterr().err
