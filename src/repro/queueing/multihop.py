"""Multi-hop discrete-event simulator.

Packets from each window-controlled connection traverse the ordered list of
nodes of their route, with a propagation delay before each hop, and the
acknowledgement of a delivered packet returns to the source after the
route's return-path propagation delay.  Congestion feedback is implicit
(drop notifications) for Jacobson-style routes and explicit (the congestion
bit accumulated across the hops) for DECbit routes.

This is the setting of the measurements and simulations the paper cites:
connections that traverse more hops see their feedback later and adjust
their windows less often per unit time, so they obtain a poorer share of any
resource they share with short connections -- exactly the unfairness the
Fokker-Planck analysis of Section 7 attributes to heterogeneous feedback
delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..control.window import DECbitWindow, JacobsonWindow
from ..exceptions import ConfigurationError
from ..health import HealthMonitor, consume_numerical_fault
from ..health.report import HealthLog
from ..multisource.fairness import jain_fairness_index
from .events import EventQueue
from .packet import Packet
from .queue_node import BottleneckQueue
from .random_streams import RandomStreams
from .source import WindowSource
from .topology import MultiHopConfig, Route
from .trace import SimulationTrace

__all__ = ["MultiHopSimulator", "MultiHopResult"]


@dataclass
class MultiHopResult:
    """Traces and per-connection metrics of one multi-hop run.

    Attributes
    ----------
    config:
        The topology/route configuration that produced the run.
    duration:
        Simulated time covered.
    throughputs:
        Delivered packets per unit time for each route, keyed by route name.
    hop_counts:
        Hop count of each route, keyed by route name.
    node_mean_queue:
        Time-average queue length of every node.
    losses:
        Packets dropped per route.
    """

    config: MultiHopConfig
    duration: float
    throughputs: Dict[str, float]
    hop_counts: Dict[str, int]
    node_mean_queue: Dict[str, float]
    losses: Dict[str, int]
    events_executed: int = 0
    health: Optional[HealthLog] = None

    def fairness_index(self) -> float:
        """Jain index of the per-route throughputs."""
        return jain_fairness_index(list(self.throughputs.values()))

    def throughput_by_hop_count(self) -> List[tuple]:
        """``(hop_count, route_name, throughput)`` sorted by hop count."""
        rows = [(self.hop_counts[name], name, self.throughputs[name])
                for name in self.throughputs]
        return sorted(rows)

    def long_to_short_ratio(self) -> float:
        """Throughput of the longest route over that of the shortest route."""
        rows = self.throughput_by_hop_count()
        shortest = rows[0][2]
        longest = rows[-1][2]
        if shortest <= 0.0:
            return float("nan")
        return float(longest / shortest)


class MultiHopSimulator:
    """Event-driven simulation of window-controlled connections over a topology.

    The ``retention`` / ``memmap_dir`` knobs match
    :class:`~repro.queueing.Simulator`: under ``"moments"`` the per-node
    mean queues stay exact (streamed time-weighted moments), under
    ``"none"`` they are reported as NaN.
    """

    #: Segment count for monitored runs; checks run at each boundary.
    HEALTH_SEGMENTS = 8

    def __init__(self, config: MultiHopConfig, retention: str = "full",
                 memmap_dir: Optional[str] = None,
                 health: str = "",
                 max_events: Optional[int] = None):
        self.config = config
        self.retention = retention
        self.memmap_dir = memmap_dir
        self.health = health
        self.max_events = max_events
        self.events = EventQueue()
        self.streams = RandomStreams(config.seed)
        # One trace per node for queue lengths; one global trace for
        # per-connection counters and window series.
        self.connection_trace = SimulationTrace(retention=retention,
                                                memmap_dir=memmap_dir)
        self._node_traces: Dict[str, SimulationTrace] = {}
        self._nodes: Dict[str, BottleneckQueue] = {}
        self._routes: List[Route] = list(config.routes)
        self._sources: List[WindowSource] = []
        self._route_of_source: Dict[int, Route] = {}
        # Forwarding is resolved per (node, source) once at build time: the
        # seed scanned ``route.hops.index(node)`` per forwarded packet.
        # Entries are ``(next_node, hop_delay)`` for intermediate hops and
        # ``(None, return_delay)`` at the route's last hop.
        self._forwarding: Dict[str, Dict[int, Tuple[Optional[BottleneckQueue],
                                                    float]]] = {}

        self._build_nodes()
        self._build_sources()
        self._build_forwarding_tables()

    # -- construction ------------------------------------------------------

    def _build_nodes(self) -> None:
        for node_config in self.config.nodes:
            trace = SimulationTrace(retention=self.retention,
                                    memmap_dir=self.memmap_dir)
            self._node_traces[node_config.name] = trace
            node = BottleneckQueue(
                event_queue=self.events,
                trace=trace,
                service_rate=node_config.service_rate,
                buffer_size=node_config.buffer_size,
                marking_threshold=node_config.marking_threshold,
                deterministic_service=True,
                streams=self.streams,
                on_departure=self._make_departure_handler(node_config.name),
                on_drop=self._handle_drop)
            self._nodes[node_config.name] = node

    def _window_control(self, route: Route):
        if route.window_scheme.lower() in ("jacobson", "tcp"):
            return JacobsonWindow()
        return DECbitWindow()

    def _build_sources(self) -> None:
        for index, route in enumerate(self._routes):
            control = self._window_control(route)
            explicit = route.window_scheme.lower() == "decbit"
            first_node = self._nodes[route.hops[0]]
            source = WindowSource(
                source_id=index,
                event_queue=self.events,
                bottleneck=first_node,
                trace=self.connection_trace,
                control=control,
                ack_channel=None,
                initial_window=route.initial_window,
                packet_spacing=0.01,
                explicit_congestion=explicit)
            self._sources.append(source)
            self._route_of_source[index] = route

    def _build_forwarding_tables(self) -> None:
        for name in self._nodes:
            self._forwarding[name] = {}
        for index, route in enumerate(self._routes):
            hops = list(route.hops)
            for position, name in enumerate(hops):
                if position + 1 < len(hops):
                    entry = (self._nodes[hops[position + 1]], route.hop_delay)
                else:
                    entry = (None, route.hop_count * route.hop_delay)
                # setdefault: for (degenerate) routes that revisit a node,
                # the seed forwarded from the first occurrence.
                self._forwarding[name].setdefault(index, entry)

    # -- packet forwarding ---------------------------------------------------

    def _make_departure_handler(self, node_name: str):
        def handle(packet: Packet) -> None:
            self._forward(packet, node_name)
        return handle

    def _forward(self, packet: Packet, node_name: str) -> None:
        next_node, delay = self._forwarding[node_name][packet.source_id]
        if next_node is not None:
            self.events.schedule_call(
                self.events.current_time + delay,
                lambda p=packet, node=next_node: node.receive(p))
        else:
            # Delivered end to end: count it and return the acknowledgement
            # over the route's return path.
            self.connection_trace.count_delivery(packet.source_id)
            source = self._sources[packet.source_id]
            self.events.schedule_call(
                self.events.current_time + delay,
                lambda p=packet, s=source: s.handle_ack(p))

    def _handle_drop(self, packet: Packet) -> None:
        route = self._route_of_source[packet.source_id]
        self.connection_trace.count_loss(packet.source_id)
        source = self._sources[packet.source_id]
        # The sender learns about the loss after roughly one round trip.
        self.events.schedule_call(
            self.events.current_time + route.round_trip_propagation,
            lambda p=packet, s=source: s.handle_drop(p))

    # -- execution -----------------------------------------------------------

    def run(self, duration: float) -> MultiHopResult:
        """Run the multi-hop simulation for *duration* time units."""
        if duration <= 0.0:
            raise ConfigurationError("duration must be positive")
        monitor = HealthMonitor.create(self.health,
                                       where="queueing.multihop")
        for trace in self._node_traces.values():
            trace.queue_length.record(0.0, 0.0)
        if consume_numerical_fault("negative-queue"):
            # Deterministic chaos hook: poison the first node's trace with
            # a negative queue-length sample halfway through the run.
            first = next(iter(self._node_traces))
            sink = self._node_traces[first].queue_length
            self.events.schedule_call(
                duration / 2.0, lambda: sink.append(duration / 2.0, -1.0))
        for source in self._sources:
            source.start(at_time=0.0)
        if monitor is None:
            executed = self.events.run_until(duration)
        else:
            executed = self._run_monitored(duration, monitor)

        deliveries = self.connection_trace.deliveries
        losses = self.connection_trace.losses
        throughputs = {}
        hop_counts = {}
        loss_counts = {}
        for index, route in enumerate(self._routes):
            throughputs[route.source_name] = deliveries.get(index, 0) / duration
            hop_counts[route.source_name] = route.hop_count
            loss_counts[route.source_name] = int(losses.get(index, 0))

        if self.retention == "none":
            node_mean_queue = {name: float("nan")
                               for name in self._node_traces}
        else:
            node_mean_queue = {
                name: trace.queue_length.time_average(0.0, duration)
                for name, trace in self._node_traces.items()
            }
        return MultiHopResult(config=self.config, duration=duration,
                              throughputs=throughputs, hop_counts=hop_counts,
                              node_mean_queue=node_mean_queue,
                              losses=loss_counts, events_executed=executed,
                              health=monitor.log if monitor else None)

    def _run_monitored(self, duration: float,
                       monitor: HealthMonitor) -> int:
        """Segmented event-loop drain with per-boundary invariant checks.

        Behaviour-identical to one ``run_until(duration)`` call (see
        :meth:`Simulator._run_monitored <repro.queueing.simulator.Simulator._run_monitored>`);
        every node's live queue length and most recent recorded sample are
        checked at each segment boundary.
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
            for name, node in self._nodes.items():
                monitor.check_queue_value(name, float(node.queue_length), now)
                sink = self._node_traces[name].queue_length
                sample = sink.last_value()
                if sample is not None and sample < 0.0:

                    def _clamp(sink=sink, now=now) -> None:
                        sink.append(now, 0.0)

                    monitor.check_queue_value(f"{name}/sample",
                                              float(sample), now,
                                              repair=_clamp)
        return executed


def parking_lot_scenario(n_extra_hops: int = 2, service_rate: float = 10.0,
                         buffer_size: int = 15, hop_delay: float = 0.2,
                         scheme: str = "jacobson",
                         seed: int = 5) -> MultiHopConfig:
    """The classic 'parking-lot' topology used to study hop-count unfairness.

    One long connection traverses ``n_extra_hops + 1`` nodes; one short
    connection crosses only the shared node (the last one).  The long
    connection therefore has the larger feedback delay and, per Section 7,
    receives the smaller share of the shared node.
    """
    if n_extra_hops < 1:
        raise ConfigurationError("n_extra_hops must be at least 1")
    from .topology import NodeConfig, Route  # local import to avoid cycle noise

    marking = buffer_size / 2.0 if scheme.lower() == "decbit" else None
    node_names = [f"node-{i}" for i in range(n_extra_hops + 1)]
    nodes = [NodeConfig(name=name, service_rate=service_rate,
                        buffer_size=buffer_size, marking_threshold=marking)
             for name in node_names]
    shared = node_names[-1]
    routes = [
        Route(source_name=f"long-{n_extra_hops + 1}-hops", hops=node_names,
              hop_delay=hop_delay, window_scheme=scheme),
        Route(source_name="short-1-hop", hops=[shared], hop_delay=hop_delay,
              window_scheme=scheme),
    ]
    return MultiHopConfig(nodes=nodes, routes=routes, seed=seed)
