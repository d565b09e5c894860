"""Event primitives and the event engine of the discrete-event simulator.

The simulator is a classic event-driven loop: every future action (a packet
arriving at the bottleneck, a service completion, an acknowledgement
reaching a source, a rate-update timer firing) is scheduled at a firing
time, and the engine executes pending actions in ``(time, sequence)`` order.
Ties are broken by insertion order so the simulation is fully deterministic
for a given random seed.

The engine is :class:`EventQueue`.  Its heap holds bare
``(time, sequence, payload)`` tuples so heap comparisons run at C speed
(the seed compared dataclass instances through a generated ``__lt__``),
and the payload is either a cancellable :class:`Event` handle or, on the
:meth:`EventQueue.schedule_call` hot path, the raw callback itself --
scheduling a fire-and-forget action allocates nothing but the tuple.
Recurring actions (source control loops) use :class:`PeriodicTimer`, a
preallocated repeating event that re-arms itself instead of building a
fresh event object and label per tick.  Cancellation is lazy: cancelled
events stay in the heap and are skipped when popped.

Cancellable handles returned by :meth:`EventQueue.schedule` are not pooled:
a free-list of handles would let a stale reference held after firing cancel
an unrelated recycled event.  The allocation win comes from not creating
handles at all on the hot paths.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple, Union

from ..exceptions import ConfigurationError, SimulationError

__all__ = ["Event", "EventQueue", "PeriodicTimer"]


class Event:
    """A scheduled simulator event (and the caller's cancellation handle).

    Events are ordered by ``(time, sequence)`` where the sequence number is
    assigned at scheduling time, making the ordering total and deterministic.

    Attributes
    ----------
    time:
        Simulated time at which the event fires.
    sequence:
        Monotonically increasing tie-breaker.
    action:
        Zero-argument callback executed when the event fires.
    label:
        Human-readable label used in error messages and debugging traces.
    cancelled:
        Cancelled events stay in the heap but are skipped when popped.
    """

    __slots__ = ("time", "sequence", "action", "label", "cancelled")

    def __init__(self, time: float, sequence: int,
                 action: Callable[[], None], label: str = "",
                 cancelled: bool = False):
        self.time = time
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark the event so it will be skipped when its time comes."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (f"Event(t={self.time:.6g}, seq={self.sequence}, "
                f"label={self.label!r}{state})")


class PeriodicTimer:
    """A preallocated repeating event: one object drives every firing.

    The seed scheduled each control-loop tick as a fresh event with a fresh
    formatted label; at hundreds of sources that is an allocation per tick
    per source.  A :class:`PeriodicTimer` allocates once and re-arms itself
    by pushing a bare heap tuple, preserving the seed's exact semantics:
    the next tick is scheduled *after* the action runs (so any events the
    action schedules receive earlier sequence numbers, keeping tie-breaking
    identical to the seed's reschedule-last pattern) and fires at
    ``previous_tick_time + interval`` computed with the same floating-point
    expression the seed used.  It only needs the queue's ``schedule_call``.
    """

    __slots__ = ("_queue", "interval", "action", "label", "next_time",
                 "cancelled", "_fire_action")

    def __init__(self, queue: "EventQueue", interval: float,
                 action: Callable[[], None], label: str = ""):
        if interval <= 0.0:
            raise ConfigurationError("timer interval must be positive")
        self._queue = queue
        self.interval = float(interval)
        self.action = action
        self.label = label
        self.next_time = 0.0
        self.cancelled = False
        # Bind once: re-arming pushes this same callable every tick.
        self._fire_action = self._fire

    def start(self, at_time: float) -> "PeriodicTimer":
        """Arm the first tick at *at_time* and return the timer."""
        self.next_time = float(at_time)
        self._queue.schedule_call(self.next_time, self._fire_action)
        return self

    def cancel(self) -> None:
        """Stop the timer; the pending tick becomes a no-op."""
        self.cancelled = True

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.action()
        next_time = self.next_time + self.interval
        self.next_time = next_time
        self._queue.schedule_call(next_time, self._fire_action)


#: Heap entries of the engine: the payload is an Event handle
#: (cancellable) or a bare zero-argument callable (fire-and-forget).
_HeapEntry = Tuple[float, int, Union[Event, Callable[[], None]]]


class EventQueue:
    """The time-ordered event engine (lazy-deletion tuple heap)."""

    __slots__ = ("_heap", "_next_sequence", "current_time")

    def __init__(self) -> None:
        self._heap: List[_HeapEntry] = []
        self._next_sequence = 0
        #: Time of the most recently fired event (simulation clock).  A
        #: plain attribute rather than a property: the per-packet callbacks
        #: read it several times per event, and a descriptor call each time
        #: is measurable at scale.  Treat as read-only.
        self.current_time = 0.0

    def __len__(self) -> int:
        return sum(1 for entry in self._heap
                   if not (entry[2].__class__ is Event and entry[2].cancelled))

    def schedule(self, time: float, action: Callable[[], None],
                 label: str = "") -> Event:
        """Schedule *action* at simulated *time* and return a cancellable handle.

        Scheduling in the past (before the current clock) is an error: it
        would silently reorder causality.
        """
        time = float(time)
        if time < self.current_time - 1e-12:
            raise SimulationError(
                f"cannot schedule event '{label}' at t={time:.6g} before the "
                f"current time {self.current_time:.6g}")
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event = Event(time, sequence, action, label)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def schedule_call(self, time: float, action: Callable[[], None]) -> None:
        """Schedule a fire-and-forget *action*; no handle is allocated.

        This is the hot path: packet emissions, service completions and
        feedback deliveries need no cancellation, so the only allocation is
        the heap tuple itself.
        """
        # float() keeps the clock double-precision whatever numeric type the
        # caller passes (a numpy float32 would otherwise contaminate
        # current_time and break bit-identity with the seed engine); on an
        # existing float it returns the object unchanged.
        time = float(time)
        if time < self.current_time - 1e-12:
            raise SimulationError(
                f"cannot schedule a call at t={time:.6g} before the current "
                f"time {self.current_time:.6g}")
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        heapq.heappush(self._heap, (time, sequence, action))

    def schedule_periodic(self, start: float, interval: float,
                          action: Callable[[], None],
                          label: str = "") -> PeriodicTimer:
        """Schedule *action* every *interval* starting at *start*."""
        if start < self.current_time - 1e-12:
            raise SimulationError(
                f"cannot start timer '{label}' at t={start:.6g} before the "
                f"current time {self.current_time:.6g}")
        return PeriodicTimer(self, interval, action, label).start(start)

    def pop_next(self) -> Optional[Event]:
        """Pop and return the next non-cancelled event, advancing the clock.

        Returns ``None`` when the queue is empty.  Fire-and-forget callbacks
        are wrapped in a synthesized :class:`Event` so the caller sees one
        uniform type (compatibility path; the run loop never goes through
        here).
        """
        heap = self._heap
        while heap:
            time, sequence, payload = heapq.heappop(heap)
            if payload.__class__ is Event:
                if payload.cancelled:
                    continue
                self.current_time = time
                return payload
            self.current_time = time
            return Event(time, sequence, payload)
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` when empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            payload = entry[2]
            if payload.__class__ is Event and payload.cancelled:
                heapq.heappop(heap)
                continue
            return entry[0]
        return None

    def run_until(self, t_end: float) -> int:
        """Fire events in order until the clock passes *t_end*.

        Returns the number of events executed.  Events scheduled exactly at
        *t_end* are executed.
        """
        heap = self._heap
        pop = heapq.heappop
        event_class = Event
        executed = 0
        while heap:
            entry = heap[0]
            time = entry[0]
            if time > t_end:
                break
            pop(heap)
            payload = entry[2]
            if payload.__class__ is event_class:
                if payload.cancelled:
                    continue
                self.current_time = time
                payload.action()
            else:
                self.current_time = time
                payload()
            executed += 1
        if t_end > self.current_time:
            self.current_time = t_end
        return executed
