"""Streaming accumulators: constant-memory summaries of sample streams.

These are the O(1)-memory backbone of the columnar data plane: ensembles
and DES runs fold their samples into accumulator *states* instead of
retaining full histories, and read the states in the same process.
``StreamingMoments.update_batch`` summarises a whole block with numpy and
folds it in through :meth:`StreamingMoments.merge`, the exact pairwise
update of Chan, Golub & LeVeque (1979).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..exceptions import AnalysisError, ConfigurationError

__all__ = [
    "StreamingMoments",
    "StreamingHistogram",
    "TimeWeightedMoments",
]

Shape = Union[int, Tuple[int, ...]]


class StreamingMoments:
    """Elementwise Welford mean/variance/min/max over samples of one shape.

    The accumulator holds per-element state for samples of a fixed
    ``shape`` (scalars by default), so one instance can stream e.g. the
    per-snapshot-time moments of a whole ensemble: with
    ``shape=(n_times, dim)`` each ``update_batch(paths, axis=1)`` folds a
    block of particles into the running per-time statistics.

    ``variance`` is the population variance (``ddof=0``, matching
    :func:`numpy.var`).
    """

    __slots__ = ("count", "mean", "m2", "minimum", "maximum")

    def __init__(self, shape: Shape = ()):
        self.count = 0
        self.mean = np.zeros(shape, dtype=float)
        self.m2 = np.zeros(shape, dtype=float)
        self.minimum = np.full(shape, np.inf, dtype=float)
        self.maximum = np.full(shape, -np.inf, dtype=float)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of one sample."""
        return self.mean.shape

    def update(self, sample) -> None:
        """Fold one sample (an array of :attr:`shape`, or a scalar)."""
        sample = np.asarray(sample, dtype=float)
        if sample.shape != self.shape:
            raise AnalysisError(
                f"sample shape {sample.shape} does not match accumulator "
                f"shape {self.shape}")
        self.count += 1
        delta = sample - self.mean
        self.mean = self.mean + delta / self.count
        self.m2 = self.m2 + delta * (sample - self.mean)
        self.minimum = np.minimum(self.minimum, sample)
        self.maximum = np.maximum(self.maximum, sample)

    def update_batch(self, samples, axis: int = 0) -> None:
        """Fold a whole block of samples stacked along *axis*.

        The block's count/mean/M2 are computed vectorised and combined
        with the running state by one exact Chan merge, so folding a
        million-particle shard costs one pass over the block and O(shape)
        memory -- no per-sample Python loop.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != len(self.shape) + 1:
            raise AnalysisError(
                f"batch must stack samples of shape {self.shape} along one "
                f"axis, got a block of shape {samples.shape}")
        n = samples.shape[axis]
        if n == 0:
            return
        block = StreamingMoments(self.shape)
        block.count = int(n)
        block.mean = np.mean(samples, axis=axis)
        block.m2 = np.var(samples, axis=axis) * n
        block.minimum = np.min(samples, axis=axis)
        block.maximum = np.max(samples, axis=axis)
        self.merge(block)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Fold *other*'s state into this one (exact Chan parallel merge)."""
        if other.shape != self.shape:
            raise AnalysisError(
                f"cannot merge accumulators of shapes {self.shape} and "
                f"{other.shape}")
        if other.count == 0:
            return self
        if self.count == 0:
            # Adopt the other state verbatim so a single-shard fold is
            # bit-identical to the shard's own statistics.
            self.count = other.count
            self.mean = other.mean.copy()
            self.m2 = other.m2.copy()
            self.minimum = other.minimum.copy()
            self.maximum = other.maximum.copy()
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.count / total)
        self.m2 = (self.m2 + other.m2
                   + delta * delta * (self.count * other.count / total))
        self.count = total
        self.minimum = np.minimum(self.minimum, other.minimum)
        self.maximum = np.maximum(self.maximum, other.maximum)
        return self

    @property
    def variance(self) -> np.ndarray:
        """Population variance (``ddof=0``), zeros when empty."""
        if self.count == 0:
            return np.zeros(self.shape)
        return self.m2 / self.count

    @property
    def std(self) -> np.ndarray:
        """Population standard deviation."""
        return np.sqrt(self.variance)

    def __repr__(self) -> str:
        return (f"StreamingMoments(shape={self.shape}, count={self.count})")


class StreamingHistogram:
    """Fixed-bin streaming histogram with integer counts.

    Bin edges are fixed at construction; samples outside the edges are
    tallied in ``underflow`` / ``overflow`` rather than silently dropped,
    so the histogram accounts for every sample.
    """

    __slots__ = ("edges", "counts", "underflow", "overflow")

    def __init__(self, edges):
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ConfigurationError(
                "histogram needs a 1-D array of at least two bin edges")
        if np.any(np.diff(edges) <= 0.0):
            raise ConfigurationError(
                "histogram bin edges must be strictly increasing")
        self.edges = edges
        self.counts = np.zeros(edges.size - 1, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0

    @property
    def total(self) -> int:
        """All samples seen, including under/overflow."""
        return int(self.counts.sum()) + self.underflow + self.overflow

    def update(self, samples) -> None:
        """Bin a batch of samples (scalars or any-shape arrays)."""
        samples = np.asarray(samples, dtype=float).ravel()
        if samples.size == 0:
            return
        counts, _ = np.histogram(samples, bins=self.edges)
        self.counts += counts
        self.underflow += int(np.count_nonzero(samples < self.edges[0]))
        # np.histogram treats the final edge as inclusive; count strictly
        # beyond it as overflow to match.
        self.overflow += int(np.count_nonzero(samples > self.edges[-1]))

    def density(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(centers, density)`` normalised over the binned range.

        Samples outside the edges are excluded from the normalisation.
        """
        total = float(self.counts.sum())
        if total == 0.0:
            raise AnalysisError("no samples fell inside the histogram range")
        widths = np.diff(self.edges)
        centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        return centers, self.counts / (total * widths)

    def __repr__(self) -> str:
        return (f"StreamingHistogram(bins={self.counts.size}, "
                f"total={self.total})")


class TimeWeightedMoments:
    """Weighted mean/variance accumulator for time-averaged metrics.

    Each sample carries a non-negative weight; for a piecewise-constant
    signal the natural weight is the duration for which the value held,
    yielding the time-average and time-variance of the signal.  The
    full-history ``TimeSeriesTrace.time_average`` folds its intervals
    through this same ``update``, so a streamed time-average is
    bit-identical to it when the same ``(value, duration)`` pairs arrive in
    the same order.
    """

    def __init__(self) -> None:
        self._weight_sum = 0.0
        self._mean = 0.0
        self._m2 = 0.0

    def update(self, value: float, weight: float) -> None:
        """Add a sample *value* with the given non-negative *weight*."""
        weight = float(weight)
        if weight < 0.0:
            raise AnalysisError("weights must be non-negative")
        if weight == 0.0:
            return
        value = float(value)
        new_weight_sum = self._weight_sum + weight
        delta = value - self._mean
        ratio = weight / new_weight_sum
        self._mean += delta * ratio
        self._m2 += weight * delta * (value - self._mean)
        self._weight_sum = new_weight_sum

    @property
    def mean(self) -> float:
        """Weighted mean (0.0 when no weight has been accumulated)."""
        return self._mean if self._weight_sum > 0.0 else 0.0

    @property
    def variance(self) -> float:
        """Weighted (population) variance."""
        if self._weight_sum <= 0.0:
            return 0.0
        return self._m2 / self._weight_sum

    @property
    def std(self) -> float:
        """Weighted standard deviation."""
        return float(np.sqrt(self.variance))

    def copy(self) -> "TimeWeightedMoments":
        """Independent copy of the current state."""
        state = TimeWeightedMoments()
        state._weight_sum = self._weight_sum
        state._mean = self._mean
        state._m2 = self._m2
        return state

    def __repr__(self) -> str:
        return (f"TimeWeightedMoments(weight={self._weight_sum:g}, "
                f"mean={self._mean:g})")

