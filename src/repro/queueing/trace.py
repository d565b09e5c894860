"""Trace recording for the discrete-event simulator.

Two layers are provided: :class:`TimeSeriesTrace`, a generic append-only
``(time, value)`` series with time-average and resampling helpers, and
:class:`SimulationTrace`, the bundle of series a simulation run produces
(queue length, per-source sending rate / window, cumulative deliveries and
losses) plus the derived metrics the experiments need.

``TimeSeriesTrace`` stores its samples in two contiguous ``float64``
columns instead of boxed-float lists (recorded values are bit-identical
either way), and ``SimulationTrace`` applies a ``retention`` policy
choosing between full history, streamed time-weighted moments, or bare
counters for every series it owns.  All three sink kinds share the
``record`` / ``append`` / ``time_average`` surface of
:mod:`repro.dataplane.sink`, so the simulator's hot paths bind ``append``
without knowing the policy.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, Optional, Union

import numpy as np

from ..dataplane import (
    MomentsTraceSink,
    NullTraceSink,
    TimeWeightedMoments,
    validate_retention,
)
from ..dataplane.sink import check_time_order
from ..exceptions import AnalysisError, ConfigurationError

__all__ = ["TimeSeriesTrace", "SimulationTrace"]

#: Samples per block of :meth:`TimeSeriesTrace.time_average`.  The fold
#: builds its interval bounds with numpy one block at a time, so its
#: temporaries stay this size however long the series is.
_FOLD_BLOCK = 1 << 14

#: Initial capacity of a trace's columns, in samples; full columns double.
_INITIAL_CAPACITY = 1024


class TimeSeriesTrace:
    """An append-only piecewise-constant time series.

    Values are recorded at (non-decreasing) times; between two records the
    series holds the earlier value, which matches how queue length and
    window size actually evolve in the simulator.

    The samples live in two parallel ``float64`` columns that double when
    full, so a million-sample trace costs two contiguous arrays, and every
    recorded Python float is stored exactly.  Pass ``memmap_dir`` to back
    the columns with ``numpy.memmap`` files in that directory instead of
    RAM, for runs too long for memory; each file is unlinked as soon as it
    is mapped, so its space is reclaimed when the trace is collected.
    """

    __slots__ = ("name", "_memmap_dir", "_times", "_values", "_length",
                 "_capacity")

    def __init__(self, name: str = "", memmap_dir: Optional[str] = None):
        if memmap_dir is not None and not os.path.isdir(memmap_dir):
            raise ConfigurationError(
                f"memmap directory does not exist: {memmap_dir}")
        self.name = name
        self._memmap_dir = memmap_dir
        self._capacity = _INITIAL_CAPACITY
        self._length = 0
        self._times = self._allocate(_INITIAL_CAPACITY)
        self._values = self._allocate(_INITIAL_CAPACITY)

    def _allocate(self, capacity: int) -> np.ndarray:
        if self._memmap_dir is None:
            return np.empty(capacity, dtype=np.float64)
        fd, path = tempfile.mkstemp(suffix=".col", dir=self._memmap_dir)
        try:
            os.ftruncate(fd, capacity * 8)
            column = np.memmap(path, dtype=np.float64, mode="r+",
                               shape=(capacity,))
        finally:
            os.close(fd)
        # The mapping keeps the data alive; unlinking now means the file
        # vanishes from disk as soon as the trace is collected.
        os.unlink(path)
        return column

    def _grow(self) -> None:
        capacity = 2 * self._capacity
        length = self._length
        for name in ("_times", "_values"):
            column = self._allocate(capacity)
            column[:length] = getattr(self, name)[:length]
            setattr(self, name, column)
        self._capacity = capacity

    def record(self, time: float, value: float) -> None:
        """Append a sample (times must be non-decreasing).

        See :func:`~repro.dataplane.sink.check_time_order` for the
        tolerance.
        """
        if self._length:
            check_time_order(self.name, self._times[self._length - 1], time)
        self.append(float(time), float(value))

    def append(self, time: float, value: float) -> None:
        """Append a sample without the monotonicity check (hot path).

        The simulator's event loop records under a monotone clock, so the
        per-sample ordering check of :meth:`record` is redundant there; the
        caller guarantees non-decreasing times and pre-converted floats.
        """
        index = self._length
        if index == self._capacity:
            self._grow()
        self._times[index] = time
        self._values[index] = value
        self._length = index + 1

    def __len__(self) -> int:
        return self._length

    @property
    def times(self) -> np.ndarray:
        """Recorded times as a read-only array view (no copy)."""
        view = self._times[:self._length]
        view.flags.writeable = False
        return view

    @property
    def values(self) -> np.ndarray:
        """Recorded values as a read-only array view (no copy)."""
        view = self._values[:self._length]
        view.flags.writeable = False
        return view

    def last_value(self) -> float:
        """Most recent value, or 0.0 when the trace is empty."""
        if self._length == 0:
            return 0.0
        return float(self._values[self._length - 1])

    def time_average(self, t_start: float = 0.0,
                     t_end: Optional[float] = None) -> float:
        """Time-average of the piecewise-constant series over ``[t_start, t_end]``."""
        n = self._length
        if n == 0:
            raise AnalysisError(f"trace '{self.name}' is empty")
        times = self.times
        values = self.values
        t_end = t_end if t_end is not None else float(times[-1])
        if t_end <= t_start:
            raise AnalysisError("t_end must exceed t_start for a time average")
        stats = TimeWeightedMoments()
        update = stats.update
        for lo in range(0, n, _FOLD_BLOCK):
            hi = min(lo + _FOLD_BLOCK, n)
            # Sample i holds from times[i] to times[i + 1] (the last one to
            # t_end), clipped to the window.  maximum, minimum and the
            # difference are exact, so these are the per-sample weights of
            # the seed's scalar fold, kept in the same order.
            starts = np.maximum(times[lo:hi], t_start)
            ends = np.minimum(times[lo + 1:hi + 1], t_end)
            if hi == n:
                ends = np.append(ends, t_end)
            kept = ends > starts
            for value, weight in zip(values[lo:hi][kept].tolist(),
                                     (ends - starts)[kept].tolist(),
                                     strict=True):
                update(value, weight)
        return float(stats.mean)

    def resample(self, sample_times: np.ndarray) -> np.ndarray:
        """Sample the piecewise-constant series at the given times."""
        if self._length == 0:
            raise AnalysisError(f"trace '{self.name}' is empty")
        sample_times = np.asarray(sample_times, dtype=float)
        times = self.times
        values = self.values
        indices = np.searchsorted(times, sample_times, side="right") - 1
        indices = np.clip(indices, 0, len(values) - 1)
        return values[indices]


TraceSinkImpl = Union[TimeSeriesTrace, MomentsTraceSink, NullTraceSink]


class SimulationTrace:
    """All the series recorded during one simulation run.

    The ``retention`` policy selects the sink implementation for every
    series (``"full"`` keeps histories, ``"moments"`` streams time-weighted
    statistics, ``"none"`` keeps only counts and last values); the packet
    counters are exact under every policy.

    Attributes
    ----------
    queue_length:
        Bottleneck queue length over time (in packets).
    source_rates:
        Per-source sending rate (rate-based sources) or window size
        (window-based sources) over time, keyed by source index.
    deliveries:
        Per-source cumulative count of packets served by the bottleneck.
    losses:
        Per-source cumulative count of packets dropped at the bottleneck.
    """

    def __init__(self, retention: str = "full",
                 memmap_dir: Optional[str] = None):
        self.retention = validate_retention(retention)
        self.memmap_dir = memmap_dir
        self.queue_length = self._make_sink("queue_length")
        self.source_rates: Dict[int, TraceSinkImpl] = {}
        self.deliveries: Dict[int, int] = {}
        self.losses: Dict[int, int] = {}

    def _make_sink(self, name: str) -> TraceSinkImpl:
        if self.retention == "full":
            return TimeSeriesTrace(name, memmap_dir=self.memmap_dir)
        if self.retention == "moments":
            return MomentsTraceSink(name)
        return NullTraceSink(name)

    def rate_trace(self, source_id: int) -> TraceSinkImpl:
        """The (created-on-demand) rate/window trace of one source."""
        if source_id not in self.source_rates:
            self.source_rates[source_id] = self._make_sink(
                f"rate-{source_id}")
        return self.source_rates[source_id]

    def count_delivery(self, source_id: int) -> None:
        """Increment the delivered-packet counter of a source."""
        self.deliveries[source_id] = self.deliveries.get(source_id, 0) + 1

    def count_loss(self, source_id: int) -> None:
        """Increment the dropped-packet counter of a source."""
        self.losses[source_id] = self.losses.get(source_id, 0) + 1
