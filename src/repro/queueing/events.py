"""Event primitives and the event engine of the discrete-event simulator.

The simulator is a classic event-driven loop: every future action (a packet
arriving at the bottleneck, a service completion, an acknowledgement
reaching a source, a rate-update timer firing) is scheduled at a firing
time, and the engine executes pending actions in ``(time, sequence)`` order.
Ties are broken by insertion order so the simulation is fully deterministic
for a given random seed.

The engine is :class:`EventQueue`.  Its heap holds bare
``(time, sequence, action)`` tuples so heap comparisons run at C speed
(the seed compared dataclass instances through a generated ``__lt__``):
scheduling an action with :meth:`EventQueue.schedule_call` allocates
nothing but the tuple, and no scheduled action can be cancelled.
Recurring actions (source control loops) use :class:`PeriodicTimer`, a
preallocated repeating event that re-arms itself instead of building a
fresh event object and label per tick.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple

from ..exceptions import ConfigurationError, SimulationError

__all__ = ["EventQueue", "PeriodicTimer"]


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
                 "_fire_action")

    def __init__(self, queue: "EventQueue", interval: float,
                 action: Callable[[], None], label: str = ""):
        if interval <= 0.0:
            raise ConfigurationError("timer interval must be positive")
        self._queue = queue
        self.interval = float(interval)
        self.action = action
        self.label = label
        self.next_time = 0.0
        # Bind once: re-arming pushes this same callable every tick.
        self._fire_action = self._fire

    def start(self, at_time: float) -> "PeriodicTimer":
        """Arm the first tick at *at_time* and return the timer."""
        self.next_time = float(at_time)
        self._queue.schedule_call(self.next_time, self._fire_action)
        return self

    def _fire(self) -> None:
        self.action()
        next_time = self.next_time + self.interval
        self.next_time = next_time
        self._queue.schedule_call(next_time, self._fire_action)


#: Heap entries of the engine: ``(time, sequence, action)``.
_HeapEntry = Tuple[float, int, Callable[[], None]]


class EventQueue:
    """The time-ordered event engine (a heap of action tuples)."""

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
        return len(self._heap)

    def schedule_call(self, time: float, action: Callable[[], None]) -> None:
        """Schedule *action* to fire at simulated *time*.

        The heap tuple is the only allocation.  Scheduling in the past
        (before the current clock) is an error: it would silently reorder
        causality.
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

    def run_until(self, t_end: float) -> int:
        """Fire events in order until the clock passes *t_end*.

        Returns the number of events executed.  Events scheduled exactly at
        *t_end* are executed.
        """
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        while heap:
            entry = heap[0]
            time = entry[0]
            if time > t_end:
                break
            pop(heap)
            self.current_time = time
            entry[2]()
            executed += 1
        if t_end > self.current_time:
            self.current_time = t_end
        return executed
