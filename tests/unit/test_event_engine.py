"""Determinism and semantics of the event engine.

The production tuple-heap engine (``EventQueue``) and the seed engine kept
as a test oracle (``seed_engine.SeedEventQueue``) must be observationally
identical: same firing order (including tie-breaking by insertion order
across both scheduling paths), same clock behaviour, and bit-identical
simulation traces for every configuration and seed.
"""

import numpy as np
import pytest
from seed_engine import SeedEventQueue, use_seed_engine

from repro.exceptions import ConfigurationError, SimulationError
from repro.queueing import (
    EventQueue,
    MultiHopSimulator,
    Simulator,
    build_scenario,
)
from repro.workloads import (
    packet_level_jrj_scenario,
    packet_level_window_scenario,
)


def _trace_fingerprint(trace):
    """Every recorded float of a simulation trace, for exact comparison."""
    return (
        trace.queue_length.times.tolist(),
        trace.queue_length.values.tolist(),
        {
            key: (series.times.tolist(), series.values.tolist())
            for key, series in trace.source_rates.items()
        },
        dict(trace.deliveries),
        dict(trace.losses),
    )


class TestFastEngineSemantics:
    def test_schedule_call_fires_in_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule_call(2.0, lambda: fired.append("b"))
        queue.schedule_call(1.0, lambda: fired.append("a"))
        queue.schedule(3.0, lambda: fired.append("c"))
        queue.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_across_both_paths(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append("handle-first"))
        queue.schedule_call(1.0, lambda: fired.append("call-second"))
        queue.schedule(1.0, lambda: fired.append("handle-third"))
        queue.run_until(2.0)
        assert fired == ["handle-first", "call-second", "handle-third"]

    def test_schedule_call_in_the_past_rejected(self):
        queue = EventQueue()
        queue.schedule_call(1.0, lambda: None)
        queue.run_until(5.0)
        with pytest.raises(SimulationError):
            queue.schedule_call(2.0, lambda: None)

    def test_periodic_timer_fires_and_cancels(self):
        queue = EventQueue()
        ticks = []
        timer = queue.schedule_periodic(
            1.0, 1.0, lambda: ticks.append(queue.current_time)
        )
        queue.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]
        timer.cancel()
        queue.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_periodic_timer_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            EventQueue().schedule_periodic(0.0, 0.0, lambda: None)

    def test_len_ignores_cancelled_handles(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.schedule_call(1.5, lambda: None)
        event = queue.schedule(2.0, lambda: None)
        event.cancel()
        assert len(queue) == 2

    def test_pop_next_wraps_bare_callbacks(self):
        queue = EventQueue()
        fired = []
        queue.schedule_call(1.0, lambda: fired.append("x"))
        event = queue.pop_next()
        assert queue.current_time == 1.0
        event.action()
        assert fired == ["x"]


class TestEngineEquivalence:
    def _randomized_program(self, queue, rng):
        """Schedule a reproducible random mix of handles, calls and timers."""
        fired = []
        times = rng.integers(0, 20, size=60) * 0.25
        for index, time in enumerate(times):
            time = float(time)
            if index % 3 == 0:
                queue.schedule_call(
                    time, lambda i=index, t=time: fired.append(("call", i, t))
                )
            else:
                event = queue.schedule(
                    time, lambda i=index, t=time: fired.append(("evt", i, t))
                )
                if index % 7 == 0:
                    event.cancel()
        queue.schedule_periodic(0.5, 1.25, lambda: fired.append(("tick",)))
        return fired

    def test_randomized_firing_order_identical(self):
        runs = []
        for engine_class in (EventQueue, SeedEventQueue):
            queue = engine_class()
            rng = np.random.default_rng(123)
            fired = self._randomized_program(queue, rng)
            executed = queue.run_until(6.0)
            runs.append((fired, executed, queue.current_time))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "config_builder",
        [
            lambda: packet_level_jrj_scenario(
                n_sources=1, service_rate=10.0, seed=3
            ),
            lambda: packet_level_jrj_scenario(
                n_sources=2, service_rate=10.0, seed=7
            ),
            lambda: packet_level_window_scenario(
                n_sources=2, service_rate=10.0, buffer_size=20,
                scheme="jacobson",
            ),
            lambda: packet_level_window_scenario(
                n_sources=2, service_rate=10.0, buffer_size=40,
                scheme="decbit",
            ),
            lambda: build_scenario("dumbbell", n_sources=12, seed=5),
        ],
        ids=["jrj-1", "jrj-2", "jacobson", "decbit", "dumbbell-12"],
    )
    def test_simulation_traces_bit_identical(self, config_builder,
                                             monkeypatch):
        fast = Simulator(config_builder()).run(60.0)
        use_seed_engine(monkeypatch)
        reference = Simulator(config_builder()).run(60.0)
        assert _trace_fingerprint(fast.trace) == _trace_fingerprint(
            reference.trace
        )
        assert fast.events_executed == reference.events_executed

    @pytest.mark.parametrize("scenario", ["parking-lot", "chain", "mesh"])
    def test_multihop_traces_bit_identical(self, scenario, monkeypatch):
        def run():
            simulator = MultiHopSimulator(build_scenario(scenario, seed=13))
            result = simulator.run(80.0)
            return (
                result.throughputs,
                result.losses,
                result.node_mean_queue,
                result.events_executed,
                _trace_fingerprint(simulator.connection_trace),
            )

        fast = run()
        use_seed_engine(monkeypatch)
        assert run() == fast


class TestBufferedJitterParity:
    def test_buffered_factors_match_scalar_draws(self):
        from repro.queueing import RandomStreams

        scalar = RandomStreams(seed=9)
        buffered = RandomStreams(seed=9)
        drawer = buffered.jitter_factors("spacing-0", 0.2, block_size=7)
        for _ in range(25):
            expected = scalar.uniform_jitter("spacing-0", 1.0, 0.2)
            assert drawer.next_factor() == expected

    def test_invalid_arguments_rejected(self):
        from repro.queueing import RandomStreams

        with pytest.raises(ConfigurationError):
            RandomStreams(1).jitter_factors("x", 0.0)
        with pytest.raises(ConfigurationError):
            RandomStreams(1).jitter_factors("x", 0.1, block_size=0)
