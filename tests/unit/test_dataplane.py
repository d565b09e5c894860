"""Unit tests for the columnar trace data plane (repro.dataplane).

Covers the columnar store, the streaming accumulators, the retention
policies threaded through the simulators / ensembles / design sweep, the
sharded map-reduce aggregation of the runner, and the golden bit-identity
of ``retention="full"`` against the frozen seed traces.
"""

import json
import math
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro import SystemParameters
from repro.control.jrj import jrj_from_parameters
from repro.dataplane import (
    ColumnarTrace,
    MomentsTraceSink,
    NullTraceSink,
    StreamingHistogram,
    StreamingMoments,
    TimeWeightedMoments,
    TraceSink,
    validate_retention,
)
from repro.exceptions import AnalysisError, ConfigurationError
from repro.queueing import MultiHopSimulator, Simulator
from repro.queueing.multihop import parking_lot_scenario
from repro.queueing.trace import SimulationTrace, TimeSeriesTrace
from repro.runner import JobSpec, MapReduceSpec, RunJournal, run_jobs
from repro.stochastic.ensemble import EnsembleResult, run_ensemble
from repro.workloads.scenarios import packet_level_jrj_scenario

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / \
    "golden_des_trace.npz"


# -- module-level fold callables (map-reduce specs cross process pools) -----

def identity_value(params=None, x=0.0):
    return float(x)


def failing_value(params=None, x=0.0):
    raise RuntimeError(f"boom at x={x}")


def fold_sum(state, value):
    # A bare-callable reduce starts from ``initial=None``.
    return value if state is None else state + value


def fold_moments(state, value):
    state.update(value)
    return state


def finalize_mean(state):
    return state.mean


class TestColumnarTrace:
    def test_growth_preserves_exact_floats(self):
        trace = ColumnarTrace(capacity=4)
        times = np.random.default_rng(0).uniform(0.0, 1.0, 1000)
        times.sort()
        values = np.random.default_rng(1).standard_normal(1000)
        for t, v in zip(times, values, strict=True):
            trace.append(float(t), float(v))
        assert len(trace) == 1000
        assert np.array_equal(trace.times, times)
        assert np.array_equal(trace.values, values)

    def test_views_are_read_only(self):
        trace = ColumnarTrace()
        trace.append(0.0, 1.0)
        with pytest.raises(ValueError):
            trace.times[0] = 5.0
        with pytest.raises(ValueError):
            trace.values[0] = 5.0

    def test_memmap_backing_matches_ram(self, tmp_path):
        ram = ColumnarTrace(capacity=8)
        disk = ColumnarTrace(capacity=8, memmap_dir=str(tmp_path))
        for i in range(200):
            ram.append(0.1 * i, float(i) ** 0.5)
            disk.append(0.1 * i, float(i) ** 0.5)
        assert np.array_equal(ram.times, disk.times)
        assert np.array_equal(ram.values, disk.values)
        assert disk.summary()["backing"] == "memmap"
        assert ram.summary()["backing"] == "memory"

    def test_empty_trace_summary(self):
        trace = ColumnarTrace()
        summary = trace.summary()
        assert summary["n_samples"] == 0
        assert trace.last_time is None
        assert trace.last_value is None


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

    def test_serde_round_trip(self):
        moments = StreamingMoments(shape=(3,))
        moments.update_batch(np.random.default_rng(5).random((40, 3)))
        revived = StreamingMoments.from_dict(
            json.loads(json.dumps(moments.to_dict())))
        assert revived.count == moments.count
        assert np.array_equal(np.asarray(revived.mean),
                              np.asarray(moments.mean))
        assert np.array_equal(np.asarray(revived.m2),
                              np.asarray(moments.m2))

    def test_wrong_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingMoments.from_dict({"__accumulator__": "bogus"})


class TestStreamingHistogram:
    def test_counts_and_overflow(self):
        edges = np.array([0.0, 1.0, 2.0])
        histogram = StreamingHistogram(edges)
        histogram.update(np.array([-0.5, 0.5, 1.5, 2.5, 1.0, 2.0]))
        assert histogram.underflow == 1
        assert histogram.overflow == 1
        assert histogram.total == 6
        # Samples at or above 1.0: 1.5, 2.5, 1.0 and 2.0 (the final edge
        # is inclusive; 2.5 lands in the overflow counter).
        assert histogram.tail_fraction(1.0) == pytest.approx(4 / 6)

    def test_merge_is_exact(self):
        edges = np.linspace(-3.0, 3.0, 13)
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(400), rng.standard_normal(300)
        left, right = StreamingHistogram(edges), StreamingHistogram(edges)
        left.update(a)
        right.update(b)
        left.merge(right)
        pooled = StreamingHistogram(edges)
        pooled.update(np.concatenate([a, b]))
        assert np.array_equal(left.counts, pooled.counts)
        assert left.underflow == pooled.underflow
        assert left.overflow == pooled.overflow

    def test_tail_fraction_requires_bin_edge(self):
        histogram = StreamingHistogram(np.array([0.0, 1.0, 2.0]))
        histogram.update(0.5)
        with pytest.raises(AnalysisError):
            histogram.tail_fraction(0.7)


class TestTimeWeightedMoments:
    def test_matches_weighted_statistics_bitwise(self):
        from repro.numerics.stats import WeightedStatistics
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

    def test_weighted_merge_matches_sequential(self):
        rng = np.random.default_rng(13)
        values, weights = rng.standard_normal(80), rng.random(80) + 0.01
        sequential = TimeWeightedMoments()
        for v, w in zip(values, weights, strict=True):
            sequential.update(float(v), float(w))
        left, right = TimeWeightedMoments(), TimeWeightedMoments()
        for v, w in zip(values[:50], weights[:50], strict=True):
            left.update(float(v), float(w))
        for v, w in zip(values[50:], weights[50:], strict=True):
            right.update(float(v), float(w))
        left.merge(right)
        assert math.isclose(float(left.mean), float(sequential.mean),
                            rel_tol=1e-12)
        assert math.isclose(float(left.variance),
                            float(sequential.variance), rel_tol=1e-12)


class TestTraceSinks:
    def test_all_sinks_satisfy_protocol(self):
        # isinstance() would *call* the raising history properties of the
        # streamed sinks, so presence is checked on the classes instead.
        assert isinstance(TimeSeriesTrace("a"), TraceSink)
        for sink_type in (MomentsTraceSink, NullTraceSink):
            for member in ("record", "append", "__len__", "times",
                           "values", "summary"):
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
    def _run(self, retention):
        config = packet_level_jrj_scenario(n_sources=2, service_rate=10.0,
                                           seed=3)
        return Simulator(config, retention=retention).run(duration=30.0)

    def test_counters_identical_across_policies(self):
        full = self._run("full")
        for retention in ("moments", "none"):
            other = self._run(retention)
            assert other.trace.deliveries == full.trace.deliveries
            assert other.trace.losses == full.trace.losses
            assert other.throughputs == full.throughputs

    def test_moments_mean_queue_bit_identical(self):
        assert self._run("moments").mean_queue == self._run("full").mean_queue

    def test_none_raises_on_history(self):
        result = self._run("none")
        with pytest.raises(AnalysisError):
            _ = result.mean_queue

    def test_serde_round_trip_exact(self):
        for retention in ("full", "moments", "none"):
            trace = self._run(retention).trace
            payload = json.loads(json.dumps(trace.to_dict()))
            revived = SimulationTrace.from_dict(payload)
            assert revived.retention == retention
            assert revived.deliveries == trace.deliveries
            assert revived.losses == trace.losses
            if retention == "full":
                assert np.array_equal(revived.queue_length.times,
                                      trace.queue_length.times)
                assert np.array_equal(revived.queue_length.values,
                                      trace.queue_length.values)
            elif retention == "moments":
                horizon = trace.queue_length.summary()["t_end"]
                assert revived.queue_length.time_average(0.0, horizon) == \
                    trace.queue_length.time_average(0.0, horizon)

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
                      seed=42, n_shards=6)
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
        assert np.max(np.abs(streamed.mean_rate_series
                             - full.mean_rate_series)) <= 1e-12
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
                                                  n_paths=8000, n_shards=32)
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
        none = run_ensemble(control, params, retention="none",
                            overflow_thresholds=(threshold,), **common)
        assert none.overflow_probability(threshold) == \
            full.overflow_probability(threshold)
        with pytest.raises(AnalysisError):
            none.final_queue_samples()

    def test_streamed_retention_requires_seed(self):
        params = SystemParameters(sigma=0.4)
        control = jrj_from_parameters(params)
        with pytest.raises(ConfigurationError):
            run_ensemble(control, params, q0=0.0, rate0=0.5, t_end=2.0,
                         n_paths=10, retention="moments")

    def test_result_serde_round_trip(self):
        params, control, common = self._ensembles()
        streamed = run_ensemble(control, params, retention="moments",
                                **common)
        revived = EnsembleResult.from_dict(
            json.loads(json.dumps(streamed.to_dict())))
        assert revived.retention == "moments"
        assert revived.n_paths == streamed.n_paths
        assert np.array_equal(revived.mean_queue_series,
                              streamed.mean_queue_series)
        assert np.array_equal(revived.final_queue_samples(),
                              streamed.final_queue_samples())


class TestMapReduce:
    def _jobs(self, values):
        return [JobSpec(identity_value, overrides={"x": float(v)})
                for v in values]

    def test_bare_callable_reduce(self):
        result = run_jobs(self._jobs([1.0, 2.0, 3.0]), reduce=fold_sum)
        assert result.reduced == 6.0

    def test_values_dropped_unless_kept(self):
        spec = MapReduceSpec(fold=fold_sum, initial=0.0)
        dropped = run_jobs(self._jobs([1.0, 2.0]), reduce=spec)
        assert all(outcome.value is None for outcome in dropped)
        kept = run_jobs(self._jobs([1.0, 2.0]),
                        reduce=MapReduceSpec(fold=fold_sum, initial=0.0,
                                             keep_values=True))
        assert [outcome.value for outcome in kept] == [1.0, 2.0]

    def test_parallel_matches_serial_bitwise(self):
        values = list(np.random.default_rng(6).standard_normal(12))
        spec = MapReduceSpec(fold=fold_moments, initial=StreamingMoments,
                             finalize=finalize_mean)
        serial = run_jobs(self._jobs(values), reduce=spec)
        parallel = run_jobs(self._jobs(values), n_jobs=3, reduce=spec)
        assert float(serial.reduced) == float(parallel.reduced)

    def test_failures_skip_without_breaking_fold(self):
        jobs = self._jobs([1.0, 2.0])
        jobs.insert(1, JobSpec(failing_value, overrides={"x": 9.0}))
        result = run_jobs(jobs, reduce=MapReduceSpec(fold=fold_sum,
                                                     initial=0.0))
        assert result.reduced == 3.0
        assert len(result.failures) == 1

    def test_journal_resume_reduces_identically(self, tmp_path):
        values = [1.5, 2.5, 3.5, 4.5]
        spec = MapReduceSpec(fold=fold_sum, initial=0.0)
        journal_path = tmp_path / "campaign.jsonl"

        first = RunJournal(str(journal_path))
        reference = run_jobs(self._jobs(values), reduce=spec,
                             journal=first)
        first.close()

        resumed_journal = RunJournal(str(journal_path))
        resumed = run_jobs(self._jobs(values), reduce=spec,
                           journal=resumed_journal)
        resumed_journal.close()
        assert resumed.journal_hits == len(values)
        assert resumed.reduced == reference.reduced

    def test_invalid_reduce_rejected(self):
        with pytest.raises(ConfigurationError):
            run_jobs(self._jobs([1.0]), reduce=42)


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
        for name in ("ensemble", "run", "design"):
            subparser = parser._subparsers._group_actions[0].choices[name]
            actions = {action.dest: action.help
                       for action in subparser._actions}
            assert "retention" in actions and "memmap_dir" in actions
            helps[name] = (actions["retention"], actions["memmap_dir"])
        assert len(set(helps.values())) == 1

    def test_unsupported_matrix_rejects_retention(self, capsys):
        from repro.cli import main
        code = main(["run", "density-grid", "--retention", "moments",
                     "--no-cache"])
        assert code == 2
        assert "does not support" in capsys.readouterr().err
