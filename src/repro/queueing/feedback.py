"""Feedback channels: delayed delivery of information back to the sources.

Two kinds of feedback flow back from the bottleneck:

* acknowledgements of served packets (carrying the congestion bit when the
  bottleneck marked them), used by window-based sources, and
* queue-length reports sampled periodically, used by rate-based sources
  (the explicit-feedback formulation the paper's model works in).

Both travel over a :class:`FeedbackChannel`, which simply delivers a payload
to a callback after a per-channel propagation delay.  Heterogeneous delays
across sources -- the Section 7 unfairness scenario -- are expressed by
giving each source its own channel with its own delay.

A channel sits on the per-control-update path of every rate source, so it
allocates no closure per send: with one fixed delay, payloads sent under
the event clock arrive in the order they were sent (equal arrival times
fire in scheduling order), so the channel keeps them in a FIFO queue and
schedules one bound delivery method per send.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from ..exceptions import ConfigurationError
from .events import EventQueue

__all__ = ["FeedbackChannel"]


class FeedbackChannel:
    """Delivers feedback payloads to a receiver after a fixed propagation delay.

    Parameters
    ----------
    event_queue:
        The simulator's event queue.
    delay:
        One-way propagation delay of the feedback path (``≥ 0``).
    receiver:
        Callback invoked with the payload when it arrives.
    """

    __slots__ = ("_events", "delay", "_receiver", "delivered_count",
                 "_in_flight", "_deliver_action")

    def __init__(self, event_queue: EventQueue, delay: float,
                 receiver: Callable[[object], None]):
        if delay < 0.0:
            raise ConfigurationError("feedback delay must be non-negative")
        self._events = event_queue
        self.delay = float(delay)
        self._receiver = receiver
        self.delivered_count = 0
        self._in_flight: Deque[object] = deque()
        self._deliver_action = self._deliver

    def send(self, payload: object) -> None:
        """Send *payload*; it reaches the receiver ``delay`` time units later."""
        self._in_flight.append(payload)
        events = self._events
        events.schedule_call(events.current_time + self.delay,
                             self._deliver_action)

    def _deliver(self) -> None:
        self.delivered_count += 1
        self._receiver(self._in_flight.popleft())
