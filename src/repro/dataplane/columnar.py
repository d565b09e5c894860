"""Chunk-growing columnar storage for (time, value) traces.

``ColumnarTrace`` replaces the per-sample Python ``list.append`` internals
of :class:`~repro.queueing.trace.TimeSeriesTrace` with two parallel
``float64`` columns that grow geometrically, so a million-sample DES trace
costs two contiguous arrays instead of a million boxed floats -- while
recording exactly the same IEEE-754 doubles (``float64`` stores every
Python float exactly, so the stored sequence is bit-identical to the
list-backed seed).

For runs too large for RAM, pass ``memmap_dir`` and the columns spill to
``numpy.memmap`` files that grow by ``ftruncate`` + remap; on POSIX the
backing files are unlinked immediately after mapping, so the space is
reclaimed automatically when the trace is garbage collected.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional, Tuple

import numpy as np

from ..exceptions import AnalysisError, ConfigurationError

__all__ = ["ColumnarTrace"]

_INITIAL_CAPACITY = 1024
_GROWTH_FACTOR = 2


class ColumnarTrace:
    """Append-only columnar (time, value) store.

    Parameters
    ----------
    capacity:
        Initial capacity in samples; buffers grow geometrically beyond it.
    memmap_dir:
        When given, back the columns with ``numpy.memmap`` files created
        in this directory instead of RAM.
    """

    __slots__ = ("_times", "_values", "_length", "_capacity", "_memmap_dir")

    def __init__(self, capacity: int = _INITIAL_CAPACITY,
                 memmap_dir: Optional[str] = None):
        if capacity < 1:
            raise ConfigurationError("trace capacity must be positive")
        if memmap_dir is not None and not os.path.isdir(memmap_dir):
            raise ConfigurationError(
                f"memmap directory does not exist: {memmap_dir}")
        self._memmap_dir = memmap_dir
        self._capacity = int(capacity)
        self._length = 0
        self._times = self._allocate(self._capacity)
        self._values = self._allocate(self._capacity)

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
        new_capacity = self._capacity * _GROWTH_FACTOR
        for name in ("_times", "_values"):
            old = getattr(self, name)
            new = self._allocate(new_capacity)
            new[:self._length] = old[:self._length]
            setattr(self, name, new)
        self._capacity = new_capacity

    def record(self, time: float, value: float) -> None:
        """Append a sample, enforcing non-decreasing times.

        The monotonicity tolerance is *relative* (one part in 10^12 of the
        current time scale), so long simulations (t ~ 1e6) are held to the
        same effective precision as short ones.
        """
        if self._length:
            last = self._times[self._length - 1]
            if time < last - 1e-12 * max(1.0, abs(last)):
                raise AnalysisError(
                    f"trace times must be non-decreasing: got {time} after "
                    f"{last}")
        self.append(time, value)

    def append(self, time: float, value: float) -> None:
        """Append a sample without the monotonicity check (hot path)."""
        if self._length == self._capacity:
            self._grow()
        index = self._length
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

    @property
    def last_time(self) -> Optional[float]:
        """Most recently recorded time, or ``None`` when empty."""
        if self._length == 0:
            return None
        return float(self._times[self._length - 1])

    @property
    def last_value(self) -> Optional[float]:
        """Most recently recorded value, or ``None`` when empty."""
        if self._length == 0:
            return None
        return float(self._values[self._length - 1])

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` view pair."""
        return self.times, self.values

    def __repr__(self) -> str:
        backing = "memmap" if self._memmap_dir is not None else "memory"
        return (f"ColumnarTrace(n_samples={self._length}, backing={backing})")
