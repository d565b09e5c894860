"""The seed event engine, kept as the differential-testing oracle.

:class:`SeedEventQueue` is the engine the simulator first shipped with: one
event object per scheduled action, heap-ordered by the events themselves,
with a separate peek/pop pass per executed event.  The production
:class:`repro.queueing.EventQueue` must stay observationally identical to
it: same firing order (including tie-breaking by insertion order), same
clock behaviour, and bit-identical simulation traces for every
configuration and seed.  Keep it slow but faithful rather than improving it.

Both simulators construct the ``EventQueue`` name of their own module, so
:func:`use_seed_engine` swaps the oracle in for one test through
``monkeypatch``.
"""

import heapq

from repro.exceptions import SimulationError
from repro.queueing import events, multihop, simulator


class SeedEvent:
    """An event ordered by ``(time, sequence)``, as the seed's dataclass was.

    The seed engine heaps event objects directly and relies on this order.
    """

    __slots__ = ("time", "sequence", "action", "label", "cancelled")

    def __init__(self, time, sequence, action, label=""):
        self.time = time
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = False

    def __lt__(self, other: "SeedEvent") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)


class SeedEventQueue:
    """The seed engine: a heap of :class:`SeedEvent` objects."""

    def __init__(self) -> None:
        self._heap = []
        self._next_sequence = 0
        #: Time of the most recently popped event (simulation clock).
        self.current_time = 0.0

    def schedule(self, time, action, label=""):
        """Schedule *action* to run at simulated *time* and return the event."""
        if time < self.current_time - 1e-12:
            raise SimulationError(
                f"cannot schedule event '{label}' at t={time:.6g} before the "
                f"current time {self.current_time:.6g}")
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event = SeedEvent(float(time), sequence, action, label)
        heapq.heappush(self._heap, event)
        return event

    def schedule_call(self, time, action):
        """The fire-and-forget path allocates a full event, as the seed did."""
        self.schedule(time, action)

    def schedule_periodic(self, start, interval, action, label=""):
        """Schedule *action* every *interval* starting at *start*.

        Each re-arm of the shared :class:`~repro.queueing.PeriodicTimer`
        lands in :meth:`schedule_call` and pays the seed's per-event
        allocation.
        """
        if start < self.current_time - 1e-12:
            raise SimulationError(
                f"cannot start timer '{label}' at t={start:.6g} before the "
                f"current time {self.current_time:.6g}")
        return events.PeriodicTimer(self, interval, action, label).start(start)

    def pop_next(self):
        """Pop and return the next non-cancelled event, advancing the clock."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.current_time = event.time
            return event
        return None

    def peek_time(self):
        """Time of the next pending event, or ``None`` when empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def run_until(self, t_end):
        """Fire events in order until the clock passes *t_end*."""
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
        self.current_time = max(self.current_time, t_end)
        return executed


def use_seed_engine(monkeypatch) -> None:
    """Make every simulator built after this call run on the seed engine."""
    for module in (simulator, multihop):
        monkeypatch.setattr(module, "EventQueue", SeedEventQueue)
