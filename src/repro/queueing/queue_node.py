"""The bottleneck node: a FIFO queue with a single server.

The bottleneck serves packets in arrival order at mean rate ``μ`` (one
packet of size 1 takes ``1/μ`` time units, optionally with exponential
variation to model service-time randomness -- the microscopic origin of the
σ² term of Equation 14).  The buffer may be finite, in which case packets
arriving to a full queue are dropped, and a marking threshold implements the
explicit congestion bit of the DECbit scheme: packets that arrive while the
queue exceeds the threshold carry the congestion indication back to their
source.

This node sits on the simulator's hottest path (two trace samples and one
scheduled completion per served packet), so the per-packet work is kept
allocation-light: completions are scheduled through the engine's
fire-and-forget path with a bound method cached at construction, queue
samples go through the trace's unchecked append, and the service time is
computed inline from a stream resolved once instead of per draw.  Every
floating-point expression matches the seed implementation so traces stay
bit-identical.
"""

from __future__ import annotations

from typing import Callable, Deque, Optional
from collections import deque

from ..exceptions import ConfigurationError
from .events import EventQueue
from .packet import Packet
from .random_streams import RandomStreams
from .trace import SimulationTrace

__all__ = ["BottleneckQueue"]


class BottleneckQueue:
    """Single-server FIFO bottleneck with optional finite buffer and marking.

    Parameters
    ----------
    event_queue:
        The simulator's event queue (used to schedule service completions).
    trace:
        Trace object that receives queue-length samples and loss counts.
    service_rate:
        Mean service rate ``μ`` in packets per unit time.
    buffer_size:
        Maximum number of packets held (including the one in service);
        ``None`` means infinite.
    marking_threshold:
        Queue length at or above which arriving packets get their congestion
        bit set (``None`` disables marking).
    deterministic_service:
        When true every packet takes exactly ``size/μ`` to serve; when false
        service times are exponential with that mean.
    streams:
        Random streams (required only for exponential service).
    on_departure:
        Callback invoked with each served packet (the simulator uses it to
        route acknowledgements back to the sources).
    on_drop:
        Callback invoked with each dropped packet.
    """

    __slots__ = ("_events", "_trace", "service_rate", "buffer_size",
                 "marking_threshold", "deterministic_service", "_streams",
                 "on_departure", "on_drop", "_queue", "_busy",
                 "total_arrivals", "total_departures", "total_drops",
                 "_service_stream", "_record_sample", "_complete_action",
                 "_count_loss", "_count_delivery")

    def __init__(self, event_queue: EventQueue, trace: SimulationTrace,
                 service_rate: float, buffer_size: Optional[int] = None,
                 marking_threshold: Optional[float] = None,
                 deterministic_service: bool = True,
                 streams: Optional[RandomStreams] = None,
                 on_departure: Optional[Callable[[Packet], None]] = None,
                 on_drop: Optional[Callable[[Packet], None]] = None):
        if service_rate <= 0.0:
            raise ConfigurationError("service_rate must be positive")
        if buffer_size is not None and buffer_size < 1:
            raise ConfigurationError("buffer_size must be at least 1")
        if not deterministic_service and streams is None:
            raise ConfigurationError(
                "exponential service requires a RandomStreams instance")
        self._events = event_queue
        self._trace = trace
        self.service_rate = float(service_rate)
        self.buffer_size = buffer_size
        self.marking_threshold = marking_threshold
        self.deterministic_service = deterministic_service
        self._streams = streams
        self.on_departure = on_departure
        self.on_drop = on_drop
        self._queue: Deque[Packet] = deque()
        self._busy = False
        self.total_arrivals = 0
        self.total_departures = 0
        self.total_drops = 0
        # Hot-path bindings resolved once: the "service" stream keeps its
        # seed-identical name-derived state, the queue-length sampler skips
        # the per-record monotonicity check, and the completion callback is
        # one bound method instead of one per scheduled completion.
        self._service_stream = (streams.stream("service")
                                if streams is not None else None)
        self._record_sample = trace.queue_length.append
        self._count_loss = trace.count_loss
        self._count_delivery = trace.count_delivery
        self._complete_action = self._complete_service

    @property
    def queue_length(self) -> int:
        """Current number of packets held (including the one in service)."""
        return len(self._queue)

    def receive(self, packet: Packet) -> None:
        """Handle a packet arriving at the bottleneck at the current time."""
        self.total_arrivals += 1
        held = len(self._queue)

        if (self.marking_threshold is not None
                and held >= self.marking_threshold):
            packet.congestion_marked = True

        if self.buffer_size is not None and held >= self.buffer_size:
            self.total_drops += 1
            self._count_loss(packet.source_id)
            if self.on_drop is not None:
                self.on_drop(packet)
            return

        now = self._events.current_time
        self._queue.append(packet)
        self._record_sample(now, float(held + 1))
        if not self._busy:
            self._start_service()

    def _start_service(self) -> None:
        queue = self._queue
        if not queue:
            self._busy = False
            return
        self._busy = True
        service = queue[0].size / self.service_rate
        if not self.deterministic_service:
            service = float(self._service_stream.exponential(service))
        events = self._events
        events.schedule_call(events.current_time + service,
                             self._complete_action)

    def _complete_service(self) -> None:
        packet = self._queue.popleft()
        now = self._events.current_time
        self.total_departures += 1
        self._count_delivery(packet.source_id)
        self._record_sample(now, float(len(self._queue)))
        if self.on_departure is not None:
            self.on_departure(packet)
        self._start_service()
