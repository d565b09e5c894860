"""Trace recording for the discrete-event simulator.

Two layers are provided: :class:`TimeSeriesTrace`, a generic append-only
``(time, value)`` series with time-average and resampling helpers, and
:class:`SimulationTrace`, the bundle of series a simulation run produces
(queue length, per-source sending rate / window, cumulative deliveries and
losses) plus the derived metrics the experiments need.

Since the columnar data-plane redesign, ``TimeSeriesTrace`` stores its
samples in a chunk-growing :class:`~repro.dataplane.ColumnarTrace` (two
contiguous ``float64`` columns instead of boxed-float lists; recorded
values are bit-identical either way), and ``SimulationTrace`` applies a
``retention`` policy choosing between full history, streamed time-weighted
moments, or bare counters for every series it owns.  All three sink kinds
implement the :class:`~repro.dataplane.TraceSink` protocol, so the
simulator's hot paths bind ``append`` without knowing the policy.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from ..dataplane import (
    ColumnarTrace,
    MomentsTraceSink,
    NullTraceSink,
    TimeWeightedMoments,
    validate_retention,
)
from ..exceptions import AnalysisError

__all__ = ["TimeSeriesTrace", "SimulationTrace"]

#: Samples per block of :meth:`TimeSeriesTrace.time_average`.  The fold
#: builds its interval bounds with numpy one block at a time, so its
#: temporaries stay this size however long the series is.
_FOLD_BLOCK = 1 << 14


class TimeSeriesTrace:
    """An append-only piecewise-constant time series.

    Values are recorded at (non-decreasing) times; between two records the
    series holds the earlier value, which matches how queue length and
    window size actually evolve in the simulator.  Storage is columnar
    (:class:`~repro.dataplane.ColumnarTrace`); pass ``memmap_dir`` to
    spill the columns to disk for very long runs.
    """

    def __init__(self, name: str = "", memmap_dir: Optional[str] = None):
        self.name = name
        self._store = ColumnarTrace(memmap_dir=memmap_dir)

    def record(self, time: float, value: float) -> None:
        """Append a sample (times must be non-decreasing).

        The monotonicity tolerance is relative (one part in 10^12 of the
        current time scale), so long simulations (t ~ 1e6) are held to the
        same effective precision as short ones.
        """
        last = self._store.last_time
        if last is not None and time < last - 1e-12 * max(1.0, abs(last)):
            raise AnalysisError(
                f"trace '{self.name}' received out-of-order time {time:.6g}")
        self._store.append(float(time), float(value))

    def append(self, time: float, value: float) -> None:
        """Append a sample without the monotonicity check (hot path).

        The simulator's event loop records under a monotone clock, so the
        per-sample ordering check of :meth:`record` is redundant there; the
        caller guarantees non-decreasing times and pre-converted floats.
        """
        self._store.append(time, value)

    def __len__(self) -> int:
        return len(self._store)

    @property
    def times(self) -> np.ndarray:
        """Recorded times as a (read-only, zero-copy) array view."""
        return self._store.times

    @property
    def values(self) -> np.ndarray:
        """Recorded values as a (read-only, zero-copy) array view."""
        return self._store.values

    def last_value(self, default: float = 0.0) -> float:
        """Most recent value, or *default* when the trace is empty."""
        value = self._store.last_value
        return value if value is not None else default

    def time_average(self, t_start: float = 0.0,
                     t_end: Optional[float] = None) -> float:
        """Time-average of the piecewise-constant series over ``[t_start, t_end]``."""
        n = len(self._store)
        if n == 0:
            raise AnalysisError(f"trace '{self.name}' is empty")
        times = self._store.times
        values = self._store.values
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
        if len(self._store) == 0:
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

    def throughput(self, source_id: int, duration: float) -> float:
        """Delivered packets per unit time for one source over *duration*."""
        if duration <= 0.0:
            raise AnalysisError("duration must be positive")
        return self.deliveries.get(source_id, 0) / duration

    def loss_rate(self, source_id: int) -> float:
        """Fraction of a source's packets that were dropped."""
        delivered = self.deliveries.get(source_id, 0)
        lost = self.losses.get(source_id, 0)
        total = delivered + lost
        return lost / total if total else 0.0
