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
    get_scenario,
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
        queue.schedule_call(3.0, lambda: fired.append("c"))
        assert queue.run_until(10.0) == 3
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_across_calls_and_timers(self):
        queue = EventQueue()
        fired = []

        def first():
            fired.append("call-first")
            # Scheduled while time 1.0 runs: after every pending tie.
            queue.schedule_call(1.0, lambda: fired.append("nested-last"))

        queue.schedule_call(1.0, first)
        queue.schedule_periodic(1.0, 5.0, lambda: fired.append("tick-second"))
        queue.schedule_call(1.0, lambda: fired.append("call-third"))
        queue.run_until(2.0)
        assert fired == ["call-first", "tick-second", "call-third",
                         "nested-last"]

    def test_run_until_fires_through_t_end_and_keeps_the_clock(self):
        queue = EventQueue()
        seen = []
        for time in (1.0, 2.0, 2.5):
            queue.schedule_call(time, lambda: seen.append(queue.current_time))
        assert queue.run_until(2.0) == 2
        assert seen == [1.0, 2.0]
        assert queue.current_time == 2.0
        assert len(queue) == 1
        assert queue.run_until(2.2) == 0
        assert queue.current_time == 2.2
        # A horizon behind the clock fires nothing and does not rewind it.
        assert queue.run_until(1.0) == 0
        assert queue.current_time == 2.2
        assert queue.run_until(3.0) == 1
        assert seen == [1.0, 2.0, 2.5]
        assert queue.current_time == 3.0

    def test_schedule_call_in_the_past_rejected(self):
        queue = EventQueue()
        queue.schedule_call(1.0, lambda: None)
        queue.run_until(5.0)
        with pytest.raises(SimulationError):
            queue.schedule_call(2.0, lambda: None)
        with pytest.raises(SimulationError):
            queue.schedule_periodic(2.0, 1.0, lambda: None)

    def test_periodic_timer_fires_every_interval(self):
        queue = EventQueue()
        ticks = []
        queue.schedule_periodic(
            1.0, 1.0, lambda: ticks.append(queue.current_time)
        )
        queue.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]
        queue.run_until(5.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_periodic_timer_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            EventQueue().schedule_periodic(0.0, 0.0, lambda: None)

    def test_len_counts_pending_actions(self):
        queue = EventQueue()
        queue.schedule_call(1.0, lambda: None)
        queue.schedule_call(1.5, lambda: None)
        queue.schedule_periodic(2.0, 1.0, lambda: None)
        assert len(queue) == 3
        queue.run_until(1.5)
        assert len(queue) == 1
        queue.run_until(2.0)
        assert len(queue) == 1  # the timer re-armed itself

    def test_periodic_timer_accumulates_its_interval(self):
        # Each tick is the previous tick plus the interval, the seed's
        # floating-point expression, not start + k * interval.
        queue = EventQueue()
        ticks = []
        queue.schedule_periodic(0.0, 0.1, lambda: ticks.append(queue.current_time))
        queue.run_until(1.05)
        expected = [0.0]
        while len(expected) < 11:
            expected.append(expected[-1] + 0.1)
        assert ticks == expected
        assert ticks[-1] != 10 * 0.1

    def test_periodic_timer_rearms_after_its_action(self):
        # A call the action schedules for the next tick time takes an
        # earlier sequence number than the re-armed tick, so it fires first.
        queue = EventQueue()
        fired = []

        def tick():
            fired.append(("tick", queue.current_time))
            if queue.current_time == 1.0:
                queue.schedule_call(2.0, lambda: fired.append(("call", 2.0)))

        queue.schedule_periodic(1.0, 1.0, tick)
        queue.run_until(2.0)
        assert fired == [("tick", 1.0), ("call", 2.0), ("tick", 2.0)]

    def test_a_numpy_firing_time_leaves_the_clock_a_python_float(self):
        queue = EventQueue()
        clocks = []
        queue.schedule_call(np.float32(1.5),
                            lambda: clocks.append(queue.current_time))
        queue.run_until(2.0)
        assert clocks == [1.5]
        assert type(clocks[0]) is float

    def test_schedule_tolerates_rounding_just_behind_the_clock(self):
        queue = EventQueue()
        queue.run_until(1.0)
        fired = []
        queue.schedule_call(1.0 - 1e-13, lambda: fired.append("late"))
        assert queue.run_until(1.0) == 1
        assert fired == ["late"]

    def test_run_until_on_an_empty_queue_only_moves_the_clock(self):
        queue = EventQueue()
        assert queue.run_until(4.0) == 0
        assert queue.current_time == 4.0
        assert len(queue) == 0


class TestEngineEquivalence:
    def _randomized_program(self, queue, rng):
        """Schedule a reproducible random mix of calls, follow-ups, a timer."""
        fired = []
        times = rng.integers(0, 20, size=60) * 0.25
        delays = rng.integers(0, 4, size=60) * 0.25

        def action(index, time):
            fired.append(("call", index, time, queue.current_time))
            if index % 3 == 0:
                # A zero delay lands on a tie scheduled while it runs.
                queue.schedule_call(
                    queue.current_time + delays[index],
                    lambda: fired.append(("follow-up", index,
                                          queue.current_time)),
                )

        for index, time in enumerate(times):
            time = float(time)
            queue.schedule_call(time, lambda i=index, t=time: action(i, t))
        queue.schedule_periodic(
            0.5, 1.25, lambda: fired.append(("tick", queue.current_time))
        )
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
            lambda: get_scenario("dumbbell").build(n_sources=12, seed=5),
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
            simulator = MultiHopSimulator(get_scenario(scenario).build(seed=13))
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
            expected = 1.0 + scalar.stream("spacing-0").uniform(-0.2, 0.2)
            assert drawer.next_factor() == expected

    def test_invalid_arguments_rejected(self):
        from repro.queueing import RandomStreams

        with pytest.raises(ConfigurationError):
            RandomStreams(1).jitter_factors("x", 0.0)
        with pytest.raises(ConfigurationError):
            RandomStreams(1).jitter_factors("x", 0.1, block_size=0)
