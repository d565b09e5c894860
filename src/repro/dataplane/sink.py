"""The streaming trace sinks.

Everything that records a ``(time, value)`` series in the simulator talks
to one of three sinks: the full-history
:class:`~repro.queueing.trace.TimeSeriesTrace`, the O(1)-memory
:class:`MomentsTraceSink` and the discarding :class:`NullTraceSink` all
share the same ``record`` / ``append`` / ``__len__`` / ``times`` /
``values`` / ``time_average`` surface, so the retention policy picks the
implementation without the simulator caring.  All three ``record``
methods check the time order with :func:`check_time_order`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import AnalysisError
from .accumulators import TimeWeightedMoments

__all__ = ["NullTraceSink", "MomentsTraceSink", "check_time_order"]


def check_time_order(name: str, last_time: float, time: float) -> None:
    """Reject a sample time that runs backwards past *last_time*.

    The tolerance is relative (one part in 10^12 of the current time
    scale), so long simulations (t ~ 1e6) are held to the same effective
    precision as short ones.
    """
    if time < last_time - 1e-12 * max(1.0, abs(last_time)):
        raise AnalysisError(
            f"trace '{name}' received out-of-order time {time:.6g}")


def _no_history(what: str):
    raise AnalysisError(
        f"{what} is unavailable under streamed retention; rerun with "
        "retention='full' to keep the trace history")


class NullTraceSink:
    """A sink that discards samples, keeping only the count and last value.

    Used by ``retention="none"`` for series nothing downstream reads
    (e.g. per-source rate traces during a pure-throughput campaign).
    The last value is retained because simulator components read it back
    (queue length resumption, rate lookups).
    """

    __slots__ = ("name", "_count", "_last_time", "_last_value")

    def __init__(self, name: str = ""):
        self.name = name
        self._count = 0
        self._last_time: Optional[float] = None
        self._last_value: Optional[float] = None

    def record(self, time: float, value: float) -> None:
        """Validate monotonicity, then drop the sample."""
        if self._last_time is not None:
            check_time_order(self.name, self._last_time, time)
        self.append(time, value)

    def append(self, time: float, value: float) -> None:
        """Drop the sample (hot path)."""
        self._count += 1
        self._last_time = time
        self._last_value = value

    def __len__(self) -> int:
        return self._count

    @property
    def times(self) -> np.ndarray:
        _no_history(f"trace '{self.name}' history")

    @property
    def values(self) -> np.ndarray:
        _no_history(f"trace '{self.name}' history")

    def last_value(self) -> float:
        """Most recent value, or 0.0 when nothing was recorded."""
        return self._last_value if self._last_value is not None else 0.0

    def time_average(self, t_start: float = 0.0,
                     t_end: Optional[float] = None) -> float:
        _no_history(f"time average of trace '{self.name}'")

    def resample(self, sample_times: np.ndarray) -> np.ndarray:
        _no_history(f"resampling of trace '{self.name}'")


class MomentsTraceSink:
    """Streams time-weighted moments of a piecewise-constant series.

    Each appended sample closes the previous value's holding interval and
    folds ``(previous_value, duration)`` into a
    :class:`~repro.dataplane.accumulators.TimeWeightedMoments` state --
    the same ``(value, weight)`` pairs, in the same order, that
    ``TimeSeriesTrace.time_average`` folds after the fact, so
    :meth:`time_average` is bit-identical to the full-history result
    whenever the requested window covers the whole recording
    (``t_start <= first record time`` and ``t_end >= last record time``).
    Windows that would require splitting a discarded interval raise.
    """

    __slots__ = ("name", "_count", "_first_time", "_last_time",
                 "_last_value", "_moments")

    def __init__(self, name: str = ""):
        self.name = name
        self._count = 0
        self._first_time: Optional[float] = None
        self._last_time: Optional[float] = None
        self._last_value: Optional[float] = None
        self._moments = TimeWeightedMoments()

    def record(self, time: float, value: float) -> None:
        """Append a sample, enforcing non-decreasing times."""
        if self._last_time is not None:
            check_time_order(self.name, self._last_time, time)
        self.append(time, value)

    def append(self, time: float, value: float) -> None:
        """Fold the closed interval, then hold *value* (hot path)."""
        if self._last_time is None:
            self._first_time = time
        elif time > self._last_time:
            self._moments.update(self._last_value, time - self._last_time)
        self._count += 1
        self._last_time = time
        self._last_value = value

    def __len__(self) -> int:
        return self._count

    @property
    def times(self) -> np.ndarray:
        _no_history(f"trace '{self.name}' history")

    @property
    def values(self) -> np.ndarray:
        _no_history(f"trace '{self.name}' history")

    def last_value(self) -> float:
        """Most recent value, or 0.0 when nothing was recorded."""
        return self._last_value if self._last_value is not None else 0.0

    def _closed_moments(self, t_start: float,
                        t_end: Optional[float]) -> TimeWeightedMoments:
        if self._count == 0:
            raise AnalysisError(f"trace '{self.name}' is empty")
        t_end = t_end if t_end is not None else self._last_time
        if t_end <= t_start:
            raise AnalysisError("t_end must exceed t_start for a time average")
        if t_start > self._first_time or t_end < self._last_time:
            raise AnalysisError(
                f"streamed trace '{self.name}' covers "
                f"[{self._first_time:g}, {self._last_time:g}]; windowed "
                f"averages inside it need retention='full'")
        final = self._moments.copy()
        if t_end > self._last_time:
            final.update(self._last_value, t_end - self._last_time)
        return final

    def time_average(self, t_start: float = 0.0,
                     t_end: Optional[float] = None) -> float:
        """Time-average over ``[t_start, t_end]`` (must cover the recording)."""
        return self._closed_moments(t_start, t_end).mean

    def resample(self, sample_times: np.ndarray) -> np.ndarray:
        _no_history(f"resampling of trace '{self.name}'")

    def __repr__(self) -> str:
        return (f"MomentsTraceSink(name={self.name!r}, "
                f"n_samples={self._count})")
