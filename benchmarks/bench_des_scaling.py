"""DES scaling benchmark: seed simulator stack versus the production one.

Two arms run the same 64-source dumbbell configuration:

* ``seed`` -- a faithful inline copy of the seed simulator stack (commit
  ``c0f79ee``): dataclass events compared through a generated ``__lt__``,
  an f-string label allocated per scheduled event, one numpy-vectorised
  drift evaluation per control tick and one scalar RNG call per packet;
* ``fast`` -- the current production stack (tuple-heap engine,
  allocation-free scheduling, periodic timers, buffered jitter).

Rounds are interleaved so machine-load drift affects both arms equally and
the minimum per arm is reported.  The assertions guard *correctness only*:

* both arms must produce bit-identical traces on the measured dumbbell run
  and on the canonical single-bottleneck configurations (rate-based and
  window-based), and
* the DES-vs-FP cross-validation metrics must be structurally sound and
  physically sane.

Timing is recorded, never asserted, so a loaded CI machine cannot turn a
measurement into a failure.  Results land in ``BENCH_des_scaling.json`` at
the repository root.  Pass ``--smoke`` (the CI perf-smoke setting) for a
reduced configuration.
"""

import argparse
import heapq
import itertools
from collections import deque
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro import SystemParameters
from repro.control.registry import create_control
from repro.control.window import DECbitWindow, JacobsonWindow
from repro.crossval import cross_validate
from repro.queueing import RandomStreams, Simulator, SimulationTrace
from repro.queueing.packet import Packet
from repro.queueing.scenarios import dumbbell_scenario
from repro.workloads import (
    packet_level_jrj_scenario,
    packet_level_window_scenario,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_des_scaling.json"


# --------------------------------------------------------------------------
# Faithful copy of the seed DES stack (commit c0f79ee).  Kept verbatim in
# spirit: per-event dataclass allocations and label formatting, the
# peek-then-pop run loop, per-packet scalar RNG calls and the vectorised
# drift evaluation, exactly as the seed performed them.  Stream names match
# the current stack, so with the current (PR 1) seed derivation the variates
# -- and therefore the traces -- must be bit-identical across arms.
# --------------------------------------------------------------------------


@dataclass(order=True)
class _SeedEvent:
    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)


class _SeedEventQueue:
    def __init__(self):
        self._heap = []
        self._counter = itertools.count()
        self._current_time = 0.0

    @property
    def current_time(self):
        return self._current_time

    def schedule(self, time, action, label=""):
        if time < self._current_time - 1e-12:
            raise RuntimeError(
                f"cannot schedule event '{label}' at t={time:.6g} before "
                f"the current time {self._current_time:.6g}")
        event = _SeedEvent(
            time=float(time),
            sequence=next(self._counter),
            action=action,
            label=label,
        )
        heapq.heappush(self._heap, event)
        return event

    def pop_next(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._current_time = event.time
            return event
        return None

    def peek_time(self):
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def run_until(self, t_end):
        executed = 0
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > t_end:
                break
            event = self.pop_next()
            if event is None:
                break
            event.action()
            executed += 1
        self._current_time = max(self._current_time, t_end)
        return executed


class _SeedJRJControl:
    """The seed's always-vectorised JRJ drift (no scalar fast path)."""

    def __init__(self, c0, c1, q_target):
        self.c0 = float(c0)
        self.c1 = float(c1)
        self.q_target = float(q_target)

    def drift(self, queue_length, rate):
        queue_length = np.asarray(queue_length, dtype=float)
        rate = np.asarray(rate, dtype=float)
        increase = np.full(np.broadcast(queue_length, rate).shape, self.c0)
        decrease = -self.c1 * rate
        result = np.where(queue_length <= self.q_target, increase, decrease)
        if result.shape == ():
            return float(result)
        return result


class _SeedBottleneckQueue:
    def __init__(self, event_queue, trace, service_rate, buffer_size=None,
                 marking_threshold=None, deterministic_service=True,
                 streams=None, on_departure=None, on_drop=None):
        self._events = event_queue
        self._trace = trace
        self.service_rate = float(service_rate)
        self.buffer_size = buffer_size
        self.marking_threshold = marking_threshold
        self.deterministic_service = deterministic_service
        self._streams = streams
        self.on_departure = on_departure
        self.on_drop = on_drop
        self._queue = deque()
        self._busy = False
        self.total_arrivals = 0
        self.total_departures = 0
        self.total_drops = 0

    @property
    def queue_length(self):
        return len(self._queue)

    def _record_queue_length(self):
        self._trace.queue_length.record(self._events.current_time,
                                        float(self.queue_length))

    def _service_time(self, packet):
        mean = packet.size / self.service_rate
        if self.deterministic_service:
            return mean
        return self._streams.exponential("service", mean)

    def receive(self, packet):
        now = self._events.current_time
        self.total_arrivals += 1
        if (self.marking_threshold is not None
                and self.queue_length >= self.marking_threshold):
            packet.congestion_marked = True
        if (self.buffer_size is not None
                and self.queue_length >= self.buffer_size):
            packet.dropped = True
            self.total_drops += 1
            self._trace.count_loss(packet.source_id)
            if self.on_drop is not None:
                self.on_drop(packet)
            return
        packet.enqueue_time = now
        self._queue.append(packet)
        self._record_queue_length()
        if not self._busy:
            self._start_service()

    def _start_service(self):
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        packet = self._queue[0]
        completion = self._events.current_time + self._service_time(packet)
        self._events.schedule(
            completion,
            self._complete_service,
            label=f"service src={packet.source_id} "
                  f"seq={packet.sequence_number}",
        )

    def _complete_service(self):
        packet = self._queue.popleft()
        packet.departure_time = self._events.current_time
        self.total_departures += 1
        self._trace.count_delivery(packet.source_id)
        self._record_queue_length()
        if self.on_departure is not None:
            self.on_departure(packet)
        self._start_service()


class _SeedFeedbackChannel:
    def __init__(self, event_queue, delay, receiver):
        self._events = event_queue
        self.delay = float(delay)
        self._receiver = receiver
        self.delivered_count = 0

    def send(self, payload):
        def deliver():
            self.delivered_count += 1
            self._receiver(payload)

        self._events.schedule(self._events.current_time + self.delay,
                              deliver, label="feedback delivery")


class _SeedRateSource:
    def __init__(self, source_id, event_queue, bottleneck, trace, streams,
                 control, initial_rate, control_interval,
                 feedback_channel=None, rate_floor=0.01,
                 jitter_fraction=0.0):
        self.source_id = source_id
        self._events = event_queue
        self._bottleneck = bottleneck
        self._trace = trace
        self._streams = streams
        self.control = control
        self.rate = max(float(initial_rate), rate_floor)
        self.control_interval = float(control_interval)
        self.feedback_channel = feedback_channel
        self.rate_floor = float(rate_floor)
        self.jitter_fraction = float(jitter_fraction)
        self._sequence = 0
        self._last_seen_queue = 0.0

    def receive_queue_report(self, queue_length):
        self._last_seen_queue = float(queue_length)

    def _request_feedback(self):
        queue_length = float(self._bottleneck.queue_length)
        if self.feedback_channel is not None:
            self.feedback_channel.send(queue_length)
        else:
            self.receive_queue_report(queue_length)

    def start(self, at_time=0.0):
        self._trace.rate_trace(self.source_id).record(at_time, self.rate)
        self._events.schedule(at_time, self._send_next_packet,
                              label=f"first packet src={self.source_id}")
        self._events.schedule(at_time + self.control_interval,
                              self._control_update,
                              label=f"control update src={self.source_id}")

    def _control_update(self):
        now = self._events.current_time
        drift = float(self.control.drift(self._last_seen_queue, self.rate))
        self.rate = max(self.rate + drift * self.control_interval,
                        self.rate_floor)
        self._trace.rate_trace(self.source_id).record(now, self.rate)
        self._request_feedback()
        self._events.schedule(now + self.control_interval,
                              self._control_update,
                              label=f"control update src={self.source_id}")

    def _send_next_packet(self):
        now = self._events.current_time
        packet = Packet(source_id=self.source_id,
                        sequence_number=self._sequence, creation_time=now)
        self._sequence += 1
        self._bottleneck.receive(packet)
        spacing = 1.0 / max(self.rate, self.rate_floor)
        if self.jitter_fraction > 0.0:
            spacing = self._streams.uniform_jitter(
                f"spacing-{self.source_id}", spacing, self.jitter_fraction)
        self._events.schedule(now + spacing, self._send_next_packet,
                              label=f"packet src={self.source_id}")


class _SeedWindowSource:
    def __init__(self, source_id, event_queue, bottleneck, trace, control,
                 ack_channel, initial_window=1.0, packet_spacing=0.01,
                 explicit_congestion=False):
        self.source_id = source_id
        self._events = event_queue
        self._bottleneck = bottleneck
        self._trace = trace
        self.control = control
        self.ack_channel = ack_channel
        self.window = float(initial_window)
        self.packet_spacing = float(packet_spacing)
        self.explicit_congestion = explicit_congestion
        self._sequence = 0
        self._outstanding = 0

    def start(self, at_time=0.0):
        self._trace.rate_trace(self.source_id).record(at_time, self.window)
        self._events.schedule(at_time, self._fill_window,
                              label=f"start window src={self.source_id}")

    def _fill_window(self):
        if self._outstanding >= int(self.window):
            return
        now = self._events.current_time
        packet = Packet(source_id=self.source_id,
                        sequence_number=self._sequence, creation_time=now)
        self._sequence += 1
        self._outstanding += 1
        self._bottleneck.receive(packet)
        if self._outstanding < int(self.window):
            self._events.schedule(now + self.packet_spacing,
                                  self._fill_window,
                                  label=f"window fill src={self.source_id}")

    def handle_ack(self, packet):
        self._outstanding = max(self._outstanding - 1, 0)
        if self.explicit_congestion and packet.congestion_marked:
            self.window = self.control.on_congestion(self.window)
        else:
            self.window = self.control.on_ack(self.window)
        self._trace.rate_trace(self.source_id).record(
            self._events.current_time, self.window)
        self._fill_window()

    def handle_drop(self, _packet):
        self._outstanding = max(self._outstanding - 1, 0)
        self.window = self.control.on_congestion(self.window)
        self._trace.rate_trace(self.source_id).record(
            self._events.current_time, self.window)
        self._fill_window()


class _SeedSimulator:
    """The seed's Simulator wiring over the seed components above."""

    def __init__(self, config):
        self.config = config
        self.events = _SeedEventQueue()
        self.trace = SimulationTrace()
        self.streams = RandomStreams(config.seed)
        self._sources = []
        self._ack_channels = {}
        self.bottleneck = _SeedBottleneckQueue(
            event_queue=self.events,
            trace=self.trace,
            service_rate=config.service_rate,
            buffer_size=config.buffer_size,
            marking_threshold=config.marking_threshold,
            deterministic_service=config.deterministic_service,
            streams=self.streams,
            on_departure=self._route_ack,
            on_drop=self._route_drop,
        )
        for index, source_config in enumerate(config.sources):
            self._sources.append(self._build_source(index, source_config))

    def _build_source(self, index, source_config):
        if source_config.kind == "rate":
            if source_config.control_name.lower() == "jrj":
                control = _SeedJRJControl(**source_config.control_kwargs)
            else:
                control = create_control(source_config.control_name,
                                         **source_config.control_kwargs)
            source = _SeedRateSource(
                source_id=index,
                event_queue=self.events,
                bottleneck=self.bottleneck,
                trace=self.trace,
                streams=self.streams,
                control=control,
                initial_rate=source_config.initial_rate,
                control_interval=source_config.control_interval,
                jitter_fraction=source_config.jitter_fraction,
            )
            source.feedback_channel = _SeedFeedbackChannel(
                self.events, source_config.feedback_delay,
                source.receive_queue_report)
            return source
        name = source_config.control_name.lower()
        if name in ("jacobson", "tcp"):
            control = JacobsonWindow(**source_config.control_kwargs)
        else:
            control = DECbitWindow(**source_config.control_kwargs)
        channel = _SeedFeedbackChannel(self.events,
                                       source_config.feedback_delay,
                                       receiver=lambda payload: None)
        source = _SeedWindowSource(
            source_id=index,
            event_queue=self.events,
            bottleneck=self.bottleneck,
            trace=self.trace,
            control=control,
            ack_channel=channel,
            initial_window=source_config.initial_window,
            explicit_congestion=self.config.marking_threshold is not None,
        )
        channel._receiver = source.handle_ack
        self._ack_channels[index] = channel
        return source

    def _route_ack(self, packet):
        source = self._sources[packet.source_id]
        if isinstance(source, _SeedWindowSource):
            self._ack_channels[packet.source_id].send(packet)

    def _route_drop(self, packet):
        source = self._sources[packet.source_id]
        if isinstance(source, _SeedWindowSource):
            channel = self._ack_channels[packet.source_id]

            def notify(payload=packet, src=source):
                src.handle_drop(payload)

            self.events.schedule(self.events.current_time + channel.delay,
                                 notify, label="drop notification")

    def run(self, duration):
        self.trace.queue_length.record(0.0, 0.0)
        for source, source_config in zip(self._sources, self.config.sources,
                                         strict=True):
            source.start(at_time=source_config.start_time)
        executed = self.events.run_until(duration)
        return self.trace, executed


# --------------------------------------------------------------------------
# Parity helpers and measurement.
# --------------------------------------------------------------------------


def _fingerprint(trace: SimulationTrace):
    """Every recorded float of a run, for exact (bitwise) comparison."""
    return (
        tuple(trace.queue_length.times.tolist()),
        tuple(trace.queue_length.values.tolist()),
        {
            key: (tuple(series.times.tolist()), tuple(series.values.tolist()))
            for key, series in trace.source_rates.items()
        },
        dict(trace.deliveries),
        dict(trace.losses),
    )


def _assert_bit_identical(label, reference_trace, candidate_trace):
    left = _fingerprint(reference_trace)
    right = _fingerprint(candidate_trace)
    assert left == right, f"trace mismatch between arms on {label}"


def _canonical_configs():
    return [
        ("jrj-1", packet_level_jrj_scenario(n_sources=1, service_rate=10.0,
                                            seed=3)),
        ("jrj-2", packet_level_jrj_scenario(n_sources=2, service_rate=10.0,
                                            seed=7)),
        ("jacobson-2", packet_level_window_scenario(
            n_sources=2, service_rate=10.0, buffer_size=20,
            scheme="jacobson")),
        ("decbit-2", packet_level_window_scenario(
            n_sources=2, service_rate=10.0, buffer_size=40, scheme="decbit")),
    ]


def _check_canonical_parity(duration):
    checked = []
    for label, config in _canonical_configs():
        seed_trace, _ = _SeedSimulator(config).run(duration)
        fast = Simulator(config).run(duration)
        _assert_bit_identical(f"{label} (seed vs fast)", seed_trace,
                              fast.trace)
        checked.append(label)
    return checked


def _measure_dumbbell(n_sources, duration, rounds):
    config = dumbbell_scenario(n_sources=n_sources, seed=11)
    times = {"seed": [], "fast": []}
    traces = {}
    events = {}
    for _ in range(rounds):
        started = time.perf_counter()
        traces["seed"], events["seed"] = _SeedSimulator(config).run(duration)
        times["seed"].append(time.perf_counter() - started)

        started = time.perf_counter()
        result = Simulator(config).run(duration)
        times["fast"].append(time.perf_counter() - started)
        traces["fast"] = result.trace
        events["fast"] = result.events_executed

    label = f"dumbbell-{n_sources}"
    _assert_bit_identical(f"{label} (seed vs fast)", traces["seed"],
                          traces["fast"])
    assert events["seed"] == events["fast"]

    best = {arm: min(samples) for arm, samples in times.items()}
    return {
        "n_sources": n_sources,
        "duration": duration,
        "rounds": rounds,
        "events": events["fast"],
        "seed_seconds": round(best["seed"], 4),
        "fast_seconds": round(best["fast"], 4),
        "speedup_vs_seed": round(best["seed"] / best["fast"], 3),
        "fast_events_per_second": round(events["fast"] / best["fast"]),
    }


def _measure_scaling(sizes, duration):
    rows = []
    for n_sources in sizes:
        config = dumbbell_scenario(n_sources=n_sources, seed=11)
        started = time.perf_counter()
        result = Simulator(config).run(duration)
        elapsed = time.perf_counter() - started
        rows.append({
            "n_sources": n_sources,
            "events": result.events_executed,
            "seconds": round(elapsed, 4),
            "events_per_second": round(result.events_executed / elapsed),
            "utilization": round(result.utilization(), 4),
        })
    return rows


def _run_cross_validation(smoke):
    params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2,
                              sigma=0.5)
    if smoke:
        report = cross_validate(params, n_sources=1, duration=800.0,
                                t_end=60.0, nq=60, nv=48)
    else:
        report = cross_validate(params, n_sources=1, duration=3000.0,
                                t_end=180.0, nq=100, nv=70)
    metrics = report.to_dict()
    # Correctness gates only: structural validity and loose physical sanity,
    # never timing.  The matched configurations are known to agree to a few
    # percent on the stationary mean; 35% catches a broken harness without
    # flaking on resolution changes.
    assert np.isfinite(list(metrics.values())).all(), metrics
    assert 0.0 <= metrics["stationary_tv_distance"] <= 1.0, metrics
    assert 0.5 < metrics["des_utilization"] <= 1.05, metrics
    assert metrics["mean_queue_rel_error"] < 0.35, metrics
    return metrics


def test_des_scaling(smoke: Optional[bool] = None):
    if smoke is None:
        smoke = "--smoke" in sys.argv
    rounds = 2 if smoke else 5
    duration = 15.0 if smoke else 40.0
    sizes = [8, 32, 64] if smoke else [8, 32, 64, 128]

    canonical = _check_canonical_parity(duration=30.0 if smoke else 60.0)
    headline = _measure_dumbbell(n_sources=64, duration=duration,
                                 rounds=rounds)
    scaling = _measure_scaling(sizes, duration=10.0 if smoke else 20.0)
    crossval = _run_cross_validation(smoke)

    record = {
        "benchmark": "des_scaling",
        "smoke": smoke,
        "trace_parity_configs": canonical + ["dumbbell-64"],
        "dumbbell_64": headline,
        "scaling": scaling,
        "cross_validation": crossval,
    }
    OUTPUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced configuration for CI smoke runs")
    arguments = parser.parse_args()
    test_des_scaling(smoke=arguments.smoke)
