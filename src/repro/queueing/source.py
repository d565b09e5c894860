"""Traffic sources: rate-based and window-based adaptive senders.

:class:`RateSource` is the packet-level realisation of the paper's model: it
emits packets at its current rate ``λ`` and periodically adjusts ``λ``
according to a :class:`repro.control.RateControl` law evaluated at the most
recent (delayed) queue-length report it has received.

:class:`WindowSource` is the original window formulation (Equation 1): it
keeps up to ``window`` packets outstanding and adjusts the window on each
acknowledgement (additive increase) or congestion indication (multiplicative
decrease) through a :class:`repro.control.WindowControl` law.  Congestion is
signalled either implicitly (a drop notification, the Jacobson/TCP case) or
explicitly (the congestion bit carried by the acknowledgement, the DECbit
case).

Both sources sit on the per-packet hot path of runs with hundreds of
senders, so they use ``__slots__``, schedule their sends through
:meth:`~repro.queueing.events.EventQueue.schedule_call` with bound methods
cached at construction, and resolve per-source stream names and rate traces
once instead of formatting/looking them up per packet.  The rate-control
loop runs on a :class:`~repro.queueing.events.PeriodicTimer` (one
preallocated repeating event per source).  Rate and window samples taken
inside events use the trace's unchecked ``append``, as the bottleneck's
queue samples do: they are stamped with the event clock, which never runs
backwards because the engine refuses to schedule in the past.  All
floating-point expressions match the seed, so a given seed produces
bit-identical traces.
"""

from __future__ import annotations

from typing import Optional

from ..control.base import RateControl, WindowControl
from ..exceptions import ConfigurationError
from .events import EventQueue
from .feedback import FeedbackChannel
from .packet import Packet
from .queue_node import BottleneckQueue
from .random_streams import RandomStreams
from .trace import SimulationTrace

__all__ = ["RateSource", "WindowSource"]


class RateSource:
    """A source sending at an explicitly controlled rate ``λ(t)``.

    Parameters
    ----------
    source_id:
        Index of this source (used in traces and packets).
    event_queue, bottleneck, trace, streams:
        Simulator plumbing.
    control:
        The rate-adjustment law ``g(q, λ)``.
    initial_rate:
        Starting rate ``λ(0)`` (packets per unit time, non-negative).
    control_interval:
        Period between rate updates; each update applies
        ``λ ← max(λ + g(q_seen, λ) · interval, rate_floor)``, where
        ``rate_floor`` (0.01) keeps the sending process alive so it can
        probe again after deep decreases.
    jitter_fraction:
        Relative jitter applied to packet spacing (0 gives perfectly paced
        packets; a positive value models burstiness and feeds the σ² term).

    The simulator sets ``feedback_channel`` after construction when the
    source has a feedback delay ``τ``: the source asks for a queue sample
    each control interval, and the report arrives ``τ`` later and is used
    at the next update.  Without a channel the report arrives at once.
    """

    __slots__ = ("source_id", "_events", "_bottleneck", "_trace", "_streams",
                 "control", "rate", "control_interval", "feedback_channel",
                 "rate_floor", "jitter_fraction", "_sequence",
                 "_last_seen_queue", "packets_sent", "_spacing_stream",
                 "_jitter", "_rate_trace", "_send_action")

    def __init__(self, source_id: int, event_queue: EventQueue,
                 bottleneck: BottleneckQueue, trace: SimulationTrace,
                 streams: RandomStreams, control: RateControl,
                 initial_rate: float, control_interval: float,
                 jitter_fraction: float = 0.0):
        if initial_rate < 0.0:
            raise ConfigurationError("initial_rate must be non-negative")
        if control_interval <= 0.0:
            raise ConfigurationError("control_interval must be positive")
        self.source_id = source_id
        self._events = event_queue
        self._bottleneck = bottleneck
        self._trace = trace
        self._streams = streams
        self.control = control
        self.rate_floor = 0.01
        self.rate = max(float(initial_rate), self.rate_floor)
        self.control_interval = float(control_interval)
        self.feedback_channel: Optional[FeedbackChannel] = None
        self.jitter_fraction = float(jitter_fraction)
        self._sequence = 0
        self._last_seen_queue = 0.0
        self.packets_sent = 0
        # Hot-path bindings: the seed formatted the jitter stream name and a
        # schedule label per packet; both are constant per source.
        self._spacing_stream = f"spacing-{source_id}"
        self._jitter = (streams.jitter_factors(self._spacing_stream,
                                               self.jitter_fraction)
                        if self.jitter_fraction > 0.0 else None)
        self._rate_trace = trace.rate_trace(source_id)
        self._send_action = self._send_next_packet

    # -- feedback ---------------------------------------------------------

    def receive_queue_report(self, queue_length: float) -> None:
        """Handle a (possibly delayed) queue-length report."""
        self._last_seen_queue = float(queue_length)

    def _request_feedback(self) -> None:
        """Sample the bottleneck queue and ship the report over the channel."""
        queue_length = float(self._bottleneck.queue_length)
        if self.feedback_channel is not None:
            self.feedback_channel.send(queue_length)
        else:
            self.receive_queue_report(queue_length)

    # -- control loop -----------------------------------------------------

    def start(self, at_time: float = 0.0) -> None:
        """Begin sending and schedule the periodic control updates."""
        self._rate_trace.record(at_time, self.rate)
        self._events.schedule_call(at_time, self._send_action)
        self._events.schedule_periodic(
            at_time + self.control_interval, self.control_interval,
            self._control_update,
            label=f"control update src={self.source_id}")

    def _control_update(self) -> None:
        now = self._events.current_time
        drift = float(self.control.drift(self._last_seen_queue, self.rate))
        self.rate = max(self.rate + drift * self.control_interval,
                        self.rate_floor)
        self._rate_trace.append(now, self.rate)
        self._request_feedback()

    # -- packet emission --------------------------------------------------

    def _send_next_packet(self) -> None:
        events = self._events
        now = events.current_time
        packet = Packet(self.source_id, self._sequence, now)
        self._sequence += 1
        self.packets_sent += 1
        self._bottleneck.receive(packet)

        spacing = 1.0 / max(self.rate, self.rate_floor)
        if self._jitter is not None:
            spacing = spacing * self._jitter.next_factor()
        events.schedule_call(now + spacing, self._send_action)


class WindowSource:
    """A source with a sliding window adjusted per acknowledgement.

    Parameters
    ----------
    source_id, event_queue, bottleneck, trace:
        Simulator plumbing.
    control:
        Window-adjustment law (Jacobson or DECbit style).
    ack_channel:
        Channel over which acknowledgements return (its delay models the
        return path; the forward path delay can be folded in as well).
    initial_window:
        Starting window in packets.
    packet_spacing:
        Minimum spacing between packet emissions, used to avoid sending an
        entire window as a single instantaneous burst (models the sender's
        own link rate).
    explicit_congestion:
        When true the source reacts to the congestion bit on
        acknowledgements (DECbit); when false it reacts to drop
        notifications (Jacobson / TCP-style implicit feedback).
    """

    __slots__ = ("source_id", "_events", "_bottleneck", "_trace", "control",
                 "ack_channel", "window", "packet_spacing",
                 "explicit_congestion", "_sequence", "_outstanding",
                 "packets_sent", "acks_received", "congestion_signals",
                 "_rate_trace", "_fill_action")

    def __init__(self, source_id: int, event_queue: EventQueue,
                 bottleneck: BottleneckQueue, trace: SimulationTrace,
                 control: WindowControl, ack_channel: FeedbackChannel,
                 initial_window: float = 1.0, packet_spacing: float = 0.01,
                 explicit_congestion: bool = False):
        if initial_window < 1.0:
            raise ConfigurationError("initial_window must be at least one packet")
        if packet_spacing <= 0.0:
            raise ConfigurationError("packet_spacing must be positive")
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
        self.packets_sent = 0
        self.acks_received = 0
        self.congestion_signals = 0
        self._rate_trace = trace.rate_trace(source_id)
        self._fill_action = self._fill_window

    def start(self, at_time: float = 0.0) -> None:
        """Record the initial window and start filling it."""
        self._rate_trace.record(at_time, self.window)
        self._events.schedule_call(at_time, self._fill_action)

    # -- sending ----------------------------------------------------------

    def _fill_window(self) -> None:
        """Send packets until the window is full, spaced by packet_spacing."""
        if self._outstanding >= int(self.window):
            return
        events = self._events
        now = events.current_time
        packet = Packet(self.source_id, self._sequence, now)
        self._sequence += 1
        self._outstanding += 1
        self.packets_sent += 1
        self._bottleneck.receive(packet)
        if self._outstanding < int(self.window):
            events.schedule_call(now + self.packet_spacing, self._fill_action)

    # -- feedback handling -------------------------------------------------

    def handle_ack(self, packet: Packet) -> None:
        """Process an acknowledgement arriving over the ack channel."""
        self.acks_received += 1
        self._outstanding = max(self._outstanding - 1, 0)
        congested = self.explicit_congestion and packet.congestion_marked
        if congested:
            self.congestion_signals += 1
            self.window = self.control.on_congestion(self.window)
        else:
            self.window = self.control.on_ack(self.window)
        self._rate_trace.append(self._events.current_time, self.window)
        self._fill_window()

    def handle_drop(self, _packet: Packet) -> None:
        """Process a drop notification (implicit congestion feedback)."""
        self._outstanding = max(self._outstanding - 1, 0)
        self.congestion_signals += 1
        self.window = self.control.on_congestion(self.window)
        self._rate_trace.append(self._events.current_time, self.window)
        self._fill_window()
