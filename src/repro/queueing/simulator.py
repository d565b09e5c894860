"""The discrete-event simulator tying sources, bottleneck and feedback together.

Given a :class:`NetworkConfig`, :class:`Simulator` builds the bottleneck, one
source object per :class:`SourceConfig` (rate-based or window-based), wires
the acknowledgement / queue-report feedback channels with their per-source
delays, runs the event loop for the requested horizon and returns a
:class:`SimulationResult` with the recorded traces and summary metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from ..control.registry import create_control
from ..control.window import DECbitWindow, JacobsonWindow
from ..exceptions import ConfigurationError
from ..health import HealthMonitor, consume_numerical_fault
from ..health.report import HealthLog
from ..multisource.fairness import jain_fairness_index
from .events import EventQueue
from .feedback import FeedbackChannel
from .network import NetworkConfig, SourceConfig
from .packet import Packet
from .queue_node import BottleneckQueue
from .random_streams import RandomStreams
from .source import RateSource, WindowSource
from .trace import SimulationTrace

__all__ = ["Simulator", "SimulationResult"]


@dataclass
class SimulationResult:
    """Traces and summary metrics from one simulation run.

    Attributes
    ----------
    config:
        The configuration that produced this result.
    trace:
        The recorded time series (queue length, per-source rate/window) and
        counters.
    duration:
        Simulated time covered by the run.
    throughputs:
        Delivered packets per unit time for each source, keyed by index.
    """

    config: NetworkConfig
    trace: SimulationTrace
    duration: float
    throughputs: Dict[int, float]
    events_executed: int = 0
    health: Optional[HealthLog] = None

    @property
    def mean_queue(self) -> float:
        """Time-average bottleneck queue length over the run.

        Available under ``retention="full"`` and ``"moments"``; raises
        :class:`~repro.exceptions.AnalysisError` under ``"none"``.
        """
        return self.trace.queue_length.time_average(0.0, self.duration)

    @property
    def total_losses(self) -> int:
        """Total packets dropped at the bottleneck."""
        return int(sum(self.trace.losses.values()))

    def throughput_list(self) -> List[float]:
        """Per-source throughputs as a list ordered by source index."""
        return [self.throughputs[i] for i in sorted(self.throughputs)]

    def fairness_index(self) -> float:
        """Jain fairness index of the per-source throughputs."""
        return jain_fairness_index(self.throughput_list())

    def utilization(self) -> float:
        """Fraction of the bottleneck capacity carried as useful throughput."""
        return float(sum(self.throughput_list())) / self.config.service_rate

    def queue_length_series(self, n_samples: int = 500
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Queue length resampled on a uniform time grid (for plots/benches)."""
        times = np.linspace(0.0, self.duration, n_samples)
        return times, self.trace.queue_length.resample(times)


class Simulator:
    """Builds and runs one packet-level simulation from a :class:`NetworkConfig`.

    Parameters
    ----------
    config:
        The declarative network description.
    retention:
        Trace retention policy: ``"full"`` keeps every recorded sample
        (bit-identical to the pre-dataplane behaviour), ``"moments"``
        streams time-weighted statistics with O(1) memory per series,
        ``"none"`` keeps only packet counters and last values.
    memmap_dir:
        Under ``retention="full"``, spill trace columns to ``numpy.memmap``
        files in this directory instead of RAM.
    health:
        Numerical health policy (see :mod:`repro.health`): ``""`` defers
        to ``REPRO_HEALTH`` / the ``observe`` default; ``"off"`` runs the
        event loop in one unmonitored ``run_until`` call, bit-identical
        to the pre-health engine.  Monitored modes split the horizon into
        a few segments and check queue non-negativity, the event budget
        and sim-time progress at each boundary.
    max_events:
        Optional total-event budget; exceeding it fires the
        ``event-budget`` invariant (abort under ``strict``).  ``None``
        (default) disables the budget.
    """

    #: Segment count for monitored runs; checks run at each boundary.
    HEALTH_SEGMENTS = 8

    def __init__(self, config: NetworkConfig, retention: str = "full",
                 memmap_dir: Optional[str] = None,
                 health: str = "",
                 max_events: Optional[int] = None):
        self.config = config
        self.health = health
        self.max_events = max_events
        self.events = EventQueue()
        self.trace = SimulationTrace(retention=retention,
                                     memmap_dir=memmap_dir)
        self.streams = RandomStreams(config.seed)
        self._sources: List[Union[RateSource, WindowSource]] = []
        self._ack_channels: Dict[int, FeedbackChannel] = {}

        self.bottleneck = BottleneckQueue(
            event_queue=self.events,
            trace=self.trace,
            service_rate=config.service_rate,
            buffer_size=config.buffer_size,
            marking_threshold=config.marking_threshold,
            deterministic_service=config.deterministic_service,
            streams=self.streams,
            on_departure=self._route_ack,
            on_drop=self._route_drop)

        for index, source_config in enumerate(config.sources):
            self._sources.append(self._build_source(index, source_config))

        # Per-source ack routing table: the departure/drop callbacks fire
        # once per packet, so an index into this list replaces the seed's
        # per-packet isinstance checks (entries are None for rate sources,
        # which consume no acknowledgements).
        self._window_acks: List[Union[FeedbackChannel, None]] = [
            self._ack_channels.get(index)
            if isinstance(source, WindowSource) else None
            for index, source in enumerate(self._sources)
        ]
        # Pure rate-source configurations consume no acknowledgements and
        # no drop notifications at all: unhook the per-packet callbacks so
        # the bottleneck skips them entirely.
        if not any(channel is not None for channel in self._window_acks):
            self.bottleneck.on_departure = None
            self.bottleneck.on_drop = None

    # -- construction ------------------------------------------------------

    def _build_window_control(self, source_config: SourceConfig):
        name = source_config.control_name.lower()
        if name in ("jacobson", "tcp"):
            return JacobsonWindow(**source_config.control_kwargs)
        if name in ("decbit", "raja", "ramakrishnan-jain"):
            return DECbitWindow(**source_config.control_kwargs)
        raise ConfigurationError(
            f"unknown window control '{source_config.control_name}'")

    def _build_source(self, index: int, source_config: SourceConfig):
        if source_config.kind == "rate":
            control = create_control(source_config.control_name,
                                     **source_config.control_kwargs)
            source = RateSource(
                source_id=index,
                event_queue=self.events,
                bottleneck=self.bottleneck,
                trace=self.trace,
                streams=self.streams,
                control=control,
                initial_rate=source_config.initial_rate,
                control_interval=source_config.control_interval,
                jitter_fraction=source_config.jitter_fraction)
            channel = FeedbackChannel(self.events, source_config.feedback_delay,
                                      source.receive_queue_report)
            source.feedback_channel = channel
            return source

        control = self._build_window_control(source_config)
        explicit = self.config.marking_threshold is not None
        # The ack channel is created first with a placeholder receiver and
        # rebound once the source object exists.
        channel = FeedbackChannel(self.events, source_config.feedback_delay,
                                  receiver=lambda payload: None)
        source = WindowSource(
            source_id=index,
            event_queue=self.events,
            bottleneck=self.bottleneck,
            trace=self.trace,
            control=control,
            ack_channel=channel,
            initial_window=source_config.initial_window,
            explicit_congestion=explicit)
        channel._receiver = source.handle_ack
        self._ack_channels[index] = channel
        return source

    # -- feedback routing --------------------------------------------------

    def _route_ack(self, packet: Packet) -> None:
        channel = self._window_acks[packet.source_id]
        if channel is not None:
            channel.send(packet)

    def _route_drop(self, packet: Packet) -> None:
        channel = self._window_acks[packet.source_id]
        if channel is not None:
            source = self._sources[packet.source_id]
            # Drop notifications travel over the same return path; model the
            # detection latency as one channel delay.
            def notify(payload=packet, src=source) -> None:
                src.handle_drop(payload)
            self.events.schedule_call(self.events.current_time + channel.delay,
                                      notify)

    # -- execution ---------------------------------------------------------

    @property
    def sources(self) -> List[Union[RateSource, WindowSource]]:
        """The constructed source objects (ordered by index)."""
        return list(self._sources)

    def run(self, duration: float) -> SimulationResult:
        """Run the simulation for *duration* time units and return the result."""
        if duration <= 0.0:
            raise ConfigurationError("duration must be positive")
        monitor = HealthMonitor.create(self.health,
                                       where="queueing.simulator")
        self.trace.queue_length.record(0.0, 0.0)
        if consume_numerical_fault("negative-queue"):
            # Deterministic chaos hook: record an impossible negative
            # queue-length sample halfway through the run so the
            # queue-invariant monitor can be exercised end to end.
            sink = self.trace.queue_length
            self.events.schedule_call(
                duration / 2.0, lambda: sink.append(duration / 2.0, -1.0))
        for source, source_config in zip(self._sources, self.config.sources,
                                         strict=True):
            source.start(at_time=source_config.start_time)
        if monitor is None:
            executed = self.events.run_until(duration)
        else:
            executed = self._run_monitored(duration, monitor)

        throughputs = {
            index: self.trace.deliveries.get(index, 0) / duration
            for index in range(self.config.n_sources)
        }
        return SimulationResult(config=self.config, trace=self.trace,
                                duration=duration, throughputs=throughputs,
                                events_executed=executed,
                                health=monitor.log if monitor else None)

    def _run_monitored(self, duration: float,
                       monitor: HealthMonitor) -> int:
        """Drain the event loop in segments, checking invariants between.

        Segmenting ``run_until`` is behaviour-identical to one call (the
        engine executes every event with time <= t_end and then advances
        ``current_time`` to the boundary); the boundaries simply give the
        monitor deterministic points to look at queue state, the event
        budget and sim-time progress without touching the per-event path.
        """
        executed = 0
        segments = self.HEALTH_SEGMENTS
        for index in range(1, segments + 1):
            segment_end = (duration if index == segments
                           else duration * index / segments)
            executed += self.events.run_until(segment_end)
            now = self.events.current_time
            monitor.check_sim_time(now, segment_end)
            monitor.check_event_budget(executed, self.max_events, now)
            self._check_queue_state(monitor, now)
        return executed

    def _check_queue_state(self, monitor: HealthMonitor, now: float) -> None:
        monitor.check_queue_value("bottleneck",
                                  float(self.bottleneck.queue_length), now)
        sink = self.trace.queue_length
        sample = sink.last_value()
        if sample is not None and sample < 0.0:

            def _clamp() -> None:
                # A corrective sample at the same timestamp zeroes the width
                # of the negative interval under every retention policy.
                sink.append(now, 0.0)

            monitor.check_queue_value("bottleneck/sample", float(sample),
                                      now, repair=_clamp)
