"""The seed statistics arithmetic, kept as the differential-testing oracle.

:class:`WeightedStatistics` is the accumulator the DES time averages first
shipped with, and :func:`time_average` is the seed's full-history fold of a
piecewise-constant series through it.  The production
:class:`repro.dataplane.TimeWeightedMoments` and
``TimeSeriesTrace.time_average`` must stay bit-identical to them: same
update arithmetic, same ``(value, duration)`` pairs, same order.
:func:`empirical_density` is the seed's normalised histogram, which
``StochasticEnsemble.final_queue_density`` must reproduce bit for bit.
Keep this file faithful rather than improving it.
"""

import numpy as np

from repro.exceptions import AnalysisError


class WeightedStatistics:
    """The seed weighted mean/variance accumulator."""

    def __init__(self) -> None:
        self._weight_sum = 0.0
        self._mean = 0.0
        self._m2 = 0.0

    def update(self, value: float, weight: float) -> None:
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
        return self._mean if self._weight_sum > 0.0 else 0.0

    @property
    def variance(self) -> float:
        if self._weight_sum <= 0.0:
            return 0.0
        return self._m2 / self._weight_sum


def time_average(times, values, t_start: float, t_end: float) -> float:
    """The seed time average of a piecewise-constant series."""
    n = len(times)
    stats = WeightedStatistics()
    for i in range(n):
        interval_start = max(times[i], t_start)
        interval_end = t_end if i == n - 1 else min(times[i + 1], t_end)
        if interval_end > interval_start:
            stats.update(values[i], interval_end - interval_start)
    return float(stats.mean)


def empirical_density(samples, edges):
    """The seed ``(centers, density)`` histogram of *samples* on *edges*."""
    samples = np.asarray(samples, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2:
        raise AnalysisError("need at least two bin edges")
    counts, _ = np.histogram(samples, bins=edges)
    widths = np.diff(edges)
    total = float(np.sum(counts))
    if total == 0.0:
        raise AnalysisError("no samples fell inside the histogram range")
    density = counts / (total * widths)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density
