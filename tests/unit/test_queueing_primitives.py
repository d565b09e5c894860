"""Unit tests for the discrete-event simulator primitives."""

import numpy as np
import pytest

from repro.exceptions import AnalysisError, ConfigurationError, SimulationError
from repro.queueing.events import EventQueue
from repro.queueing.feedback import FeedbackChannel
from repro.queueing.packet import Packet
from repro.queueing.queue_node import BottleneckQueue
from repro.queueing.random_streams import RandomStreams
from repro.queueing.trace import SimulationTrace, TimeSeriesTrace


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule_call(2.0, lambda: fired.append("b"))
        queue.schedule_call(1.0, lambda: fired.append("a"))
        queue.schedule_call(3.0, lambda: fired.append("c"))
        queue.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule_call(1.0, lambda: fired.append("first"))
        queue.schedule_call(1.0, lambda: fired.append("second"))
        queue.run_until(2.0)
        assert fired == ["first", "second"]

    def test_run_until_does_not_fire_later_events(self):
        queue = EventQueue()
        fired = []
        queue.schedule_call(1.0, lambda: fired.append("early"))
        queue.schedule_call(5.0, lambda: fired.append("late"))
        executed = queue.run_until(2.0)
        assert executed == 1
        assert fired == ["early"]
        assert queue.current_time == 2.0

    def test_scheduling_in_the_past_rejected(self):
        queue = EventQueue()
        queue.schedule_call(1.0, lambda: None)
        queue.run_until(5.0)
        with pytest.raises(SimulationError):
            queue.schedule_call(2.0, lambda: None)

    def test_events_scheduled_during_execution(self):
        queue = EventQueue()
        fired = []

        def chain():
            fired.append(len(fired))
            if len(fired) < 3:
                queue.schedule_call(queue.current_time + 1.0, chain)

        queue.schedule_call(0.0, chain)
        queue.run_until(10.0)
        assert fired == [0, 1, 2]

    def test_len_counts_pending_events(self):
        queue = EventQueue()
        queue.schedule_call(1.0, lambda: None)
        queue.schedule_call(2.0, lambda: None)
        assert len(queue) == 2
        queue.run_until(1.0)
        assert len(queue) == 1


class TestRandomStreams:
    def test_streams_are_reproducible(self):
        a = RandomStreams(seed=42)
        b = RandomStreams(seed=42)
        assert a.exponential("x", 1.0) == b.exponential("x", 1.0)

    def test_different_names_are_independent(self):
        streams = RandomStreams(seed=42)
        first = [streams.exponential("a", 1.0) for _ in range(5)]
        second = [streams.exponential("b", 1.0) for _ in range(5)]
        assert first != second

    def test_exponential_mean(self):
        streams = RandomStreams(seed=7)
        samples = [streams.exponential("svc", 2.0) for _ in range(5000)]
        assert np.mean(samples) == pytest.approx(2.0, rel=0.1)

    def test_jitter_factor_bounds(self):
        jitter = RandomStreams(seed=7).jitter_factors("j", 0.2, block_size=16)
        values = [jitter.next_factor() for _ in range(100)]
        assert all(0.8 <= value <= 1.2 for value in values)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            RandomStreams(seed=-1)
        with pytest.raises(ConfigurationError):
            RandomStreams(1).exponential("x", 0.0)

    def test_streams_do_not_depend_on_request_order(self):
        forward = RandomStreams(seed=5)
        backward = RandomStreams(seed=5)
        a_then_b = (forward.exponential("a", 1.0),
                    forward.exponential("b", 1.0))
        b_then_a = (backward.exponential("b", 1.0),
                    backward.exponential("a", 1.0))
        assert a_then_b[0] == b_then_a[1]
        assert a_then_b[1] == b_then_a[0]


class TestChildSeedDerivation:
    def test_derivation_is_deterministic(self):
        from repro.queueing import derive_child_seed

        assert derive_child_seed(42, (3,)) == derive_child_seed(42, (3,))
        assert derive_child_seed(42, (3,)) != derive_child_seed(42, (4,))
        assert derive_child_seed(42, (3,)) != derive_child_seed(43, (3,))

    def test_children_independent_of_sibling_count(self):
        from repro.queueing import child_seed_sequence, child_seed_sequences

        def states(children):
            return [child.generate_state(4).tolist() for child in children]

        few = child_seed_sequences(7, 2, key=("run",))
        many = child_seed_sequences(7, 8, key=("run",))
        assert states(few) == states(many[:2])
        # Spawn-key based: child i is addressable without enumerating 0..i-1.
        assert states(many[5:6]) == states(
            [child_seed_sequence(7, ("run", 5))])

    def test_not_plain_seed_plus_i(self):
        from repro.queueing import derive_child_seed

        seeds = [derive_child_seed(1000, (i,)) for i in range(4)]
        assert seeds != [1000 + i for i in range(4)]
        assert len(set(seeds)) == 4

    def test_string_key_elements_are_stable(self):
        from repro.queueing import child_seed_sequence

        state_a = child_seed_sequence(9, ("ensemble", 0)).generate_state(4)
        state_b = child_seed_sequence(9, ("ensemble", 0)).generate_state(4)
        state_c = child_seed_sequence(9, ("other", 0)).generate_state(4)
        assert state_a.tolist() == state_b.tolist()
        assert state_a.tolist() != state_c.tolist()

    def test_invalid_keys_rejected(self):
        from repro.queueing import child_seed_sequence, child_seed_sequences

        with pytest.raises(ConfigurationError):
            child_seed_sequence(-1, (0,))
        with pytest.raises(ConfigurationError):
            child_seed_sequence(1, (-2,))
        with pytest.raises(ConfigurationError):
            child_seed_sequence(1, (1.5,))
        with pytest.raises(ConfigurationError):
            child_seed_sequences(1, 0)


class TestTimeSeriesTrace:
    def test_time_average_of_piecewise_constant(self):
        trace = TimeSeriesTrace("queue")
        trace.record(0.0, 0.0)
        trace.record(5.0, 10.0)
        # Value 0 for 5 units, value 10 for 5 units -> average 5.
        assert trace.time_average(0.0, 10.0) == pytest.approx(5.0)

    def test_resample(self):
        trace = TimeSeriesTrace()
        trace.record(0.0, 1.0)
        trace.record(2.0, 3.0)
        samples = trace.resample(np.array([0.5, 1.9, 2.5]))
        assert np.allclose(samples, [1.0, 1.0, 3.0])

    def test_out_of_order_rejected(self):
        trace = TimeSeriesTrace()
        trace.record(2.0, 1.0)
        with pytest.raises(AnalysisError):
            trace.record(1.0, 2.0)

    def test_empty_trace_average_raises(self):
        with pytest.raises(AnalysisError):
            TimeSeriesTrace().time_average(0.0, 1.0)

    def test_last_value_default(self):
        assert TimeSeriesTrace().last_value() == 0.0


class TestSimulationTrace:
    def test_counters_and_rates(self):
        trace = SimulationTrace()
        trace.count_delivery(0)
        trace.count_delivery(0)
        trace.count_loss(0)
        trace.count_delivery(1)
        assert trace.deliveries == {0: 2, 1: 1}
        assert trace.losses == {0: 1}

    def test_rate_trace_created_on_demand(self):
        trace = SimulationTrace()
        trace.rate_trace(3).record(0.0, 1.0)
        assert len(trace.source_rates[3]) == 1


class TestBottleneckQueue:
    def _make(self, **kwargs):
        events = EventQueue()
        trace = SimulationTrace()
        queue = BottleneckQueue(events, trace, service_rate=2.0, **kwargs)
        return events, trace, queue

    def test_single_packet_served_after_service_time(self):
        events, trace, queue = self._make()
        served = []
        queue.on_departure = served.append
        packet = Packet(source_id=0, sequence_number=0, creation_time=0.0)
        queue.receive(packet)
        events.run_until(1.0)
        assert served == [packet]

    def test_fifo_order(self):
        events, trace, queue = self._make()
        served = []
        queue.on_departure = lambda p: served.append(p.sequence_number)
        for sequence in range(3):
            queue.receive(Packet(source_id=0, sequence_number=sequence,
                                 creation_time=0.0))
        events.run_until(5.0)
        assert served == [0, 1, 2]

    def test_finite_buffer_drops_overflow(self):
        events, trace, queue = self._make(buffer_size=2)
        dropped = []
        queue.on_drop = dropped.append
        for sequence in range(5):
            queue.receive(Packet(source_id=0, sequence_number=sequence,
                                 creation_time=0.0))
        assert len(dropped) == 3
        assert queue.total_drops == 3
        assert trace.losses[0] == 3

    def test_marking_threshold_sets_congestion_bit(self):
        events, trace, queue = self._make(marking_threshold=1)
        first = Packet(source_id=0, sequence_number=0, creation_time=0.0)
        second = Packet(source_id=0, sequence_number=1, creation_time=0.0)
        queue.receive(first)
        queue.receive(second)
        assert not first.congestion_marked
        assert second.congestion_marked

    def test_exponential_service_requires_streams(self):
        events = EventQueue()
        trace = SimulationTrace()
        with pytest.raises(ConfigurationError):
            BottleneckQueue(events, trace, service_rate=1.0,
                            deterministic_service=False)

    def test_invalid_service_rate_rejected(self):
        events = EventQueue()
        trace = SimulationTrace()
        with pytest.raises(ConfigurationError):
            BottleneckQueue(events, trace, service_rate=0.0)


class TestFeedbackChannel:
    def test_payload_delivered_after_delay(self):
        events = EventQueue()
        received = []
        channel = FeedbackChannel(events, delay=2.0, receiver=received.append)
        events.schedule_call(1.0, lambda: channel.send("hello"))
        events.run_until(2.5)
        assert received == []
        events.run_until(3.5)
        assert received == ["hello"]
        assert channel.delivered_count == 1

    def test_zero_delay_delivers_at_same_time(self):
        events = EventQueue()
        received = []
        channel = FeedbackChannel(events, delay=0.0, receiver=received.append)
        events.schedule_call(1.0, lambda: channel.send(42))
        events.run_until(1.0)
        assert received == [42]

    @pytest.mark.parametrize("delay", [0.0, 0.75])
    def test_payloads_arrive_in_send_order(self, delay):
        events = EventQueue()
        received = []
        channel = FeedbackChannel(
            events, delay=delay,
            receiver=lambda p: received.append((events.current_time, p)))

        def burst():
            for payload in ("a", "b", "c"):
                channel.send(payload)

        events.schedule_call(1.0, burst)
        for time, payload in ((1.25, "d"), (1.5, "e"), (2.0, "f")):
            events.schedule_call(time, lambda p=payload: channel.send(p))
        events.run_until(10.0)
        assert received == [(1.0 + delay, "a"), (1.0 + delay, "b"),
                            (1.0 + delay, "c"), (1.25 + delay, "d"),
                            (1.5 + delay, "e"), (2.0 + delay, "f")]
        assert channel.delivered_count == 6

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            FeedbackChannel(EventQueue(), delay=-1.0, receiver=lambda p: None)
