"""Oscillation metrics for arbitrary time series.

Substrate-independent metrics built on the tests of the peak/FFT utilities
in :mod:`repro.numerics.spectral`: given any ``(times, values)`` series (or
a block of them) it reports whether a sustained oscillation is present and,
if so, its amplitude and period.  The delayed-feedback and
algorithm-comparison experiments use it on the queue-length output of every
substrate so the numbers are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import AnalysisError

__all__ = ["OscillationMetrics", "OscillationMetricsBatch",
           "oscillation_metrics", "oscillation_metrics_batch"]

#: Elements per column block of :func:`oscillation_metrics_batch` (512 KiB
#: of float64 window rows): its temporaries stay a few times this size
#: whatever the batch.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class OscillationMetrics:
    """Amplitude / period summary of one series' steady-state window.

    Attributes
    ----------
    amplitude:
        Half the peak-to-trough swing over the analysis window.
    period:
        Dominant period (NaN when there is no sustained oscillation).
    sustained:
        Whether the amplitude exceeds the supplied floor.
    mean_value:
        Mean of the series over the window.
    n_peaks:
        Number of local maxima detected in the window.
    """

    amplitude: float
    period: float
    sustained: bool
    mean_value: float
    n_peaks: int


def oscillation_metrics(times: np.ndarray, values: np.ndarray,
                        steady_fraction: float = 0.5,
                        amplitude_floor: float = 0.05) -> OscillationMetrics:
    """Measure the steady-state oscillation of ``(times, values)``.

    The final *steady_fraction* of the series is used so start-up transients
    do not inflate the amplitude.  A batch of one of
    :func:`oscillation_metrics_batch`.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.size < 8:
        raise AnalysisError("need at least eight samples for oscillation metrics")
    return oscillation_metrics_batch(
        times, values[:, None], steady_fraction=steady_fraction,
        amplitude_floor=amplitude_floor).member(0)


@dataclass(frozen=True)
class OscillationMetricsBatch:
    """Column-wise oscillation metrics of a family of series.

    Each attribute holds one value per column of the analysed block; see
    :class:`OscillationMetrics` for their meaning.
    """

    amplitude: np.ndarray
    period: np.ndarray
    sustained: np.ndarray
    mean_value: np.ndarray
    n_peaks: np.ndarray

    @property
    def batch_size(self) -> int:
        """Number of series in the family."""
        return int(self.amplitude.size)

    def member(self, index: int) -> OscillationMetrics:
        """Extract one column as a scalar :class:`OscillationMetrics`."""
        return OscillationMetrics(amplitude=float(self.amplitude[index]),
                                  period=float(self.period[index]),
                                  sustained=bool(self.sustained[index]),
                                  mean_value=float(self.mean_value[index]),
                                  n_peaks=int(self.n_peaks[index]))


def oscillation_metrics_batch(times: np.ndarray, values: np.ndarray,
                              steady_fraction: float = 0.5,
                              amplitude_floor: float = 0.05
                              ) -> OscillationMetricsBatch:
    """Column-wise oscillation metrics of a ``(n, batch)`` block.

    The final *steady_fraction* of the samples is analysed in blocks of
    columns, each transposed once into contiguous rows of at most
    ``_BLOCK_ELEMENTS`` elements, so no temporary grows with the batch.
    Every field is a row-wise reduction: amplitude from the row extremes,
    peaks from the local-maximum mask of
    :func:`~repro.numerics.spectral.detect_peaks`, the mean, and the period
    from one ``rfft`` over the sustained rows with the power test of
    :func:`~repro.numerics.spectral.dominant_period`.  Reductions along a
    contiguous row use the same pairwise summation as a 1-D call, so every
    member is bit-identical to analysing its column alone.  A sustained
    member whose spectrum shows no oscillation falls back, on its own, to
    the mean spacing of its peaks.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or times.shape != (values.shape[0],):
        raise AnalysisError(
            "oscillation_metrics_batch needs times of shape (n,) and values "
            "of shape (n, batch)")
    if times.size < 8:
        raise AnalysisError("need at least eight samples for oscillation metrics")
    if not 0.0 < steady_fraction <= 1.0:
        raise AnalysisError("steady_fraction must lie in (0, 1]")

    start = int((1.0 - steady_fraction) * times.size)
    window_times = times[start:]
    window = values[start:]
    width, batch = window.shape
    if width >= 8:
        dt = float(np.mean(np.diff(window_times)))
        frequencies = np.fft.rfftfreq(width, d=dt)

    amplitude = np.empty(batch)
    sustained = np.empty(batch, dtype=bool)
    mean_value = np.empty(batch)
    n_peaks = np.empty(batch, dtype=np.int_)
    period = np.full(batch, np.nan)
    block = max(_BLOCK_ELEMENTS // width, 1)
    for first in range(0, batch, block):
        columns = slice(first, min(first + block, batch))
        rows = np.ascontiguousarray(window[:, columns].T)
        amplitude[columns] = 0.5 * (rows.max(axis=1) - rows.min(axis=1))
        sustained[columns] = amplitude[columns] > amplitude_floor
        interior = rows[:, 1:-1]
        peak_mask = (interior > rows[:, :-2]) & (interior >= rows[:, 2:])
        n_peaks[columns] = peak_mask.sum(axis=1)
        mean_value[columns] = rows.mean(axis=1)

        oscillating = np.flatnonzero(sustained[columns] & (width >= 8))
        if oscillating.size:
            spectrum = np.fft.rfft(rows[oscillating]
                                   - mean_value[first + oscillating, None],
                                   axis=1)
            power = (np.abs(spectrum) ** 2)[:, 1:]
            total = power.sum(axis=1)
            frequency = frequencies[1 + np.argmax(power, axis=1)]
            found = ~((total <= 0.0)
                      | (power.max(axis=1) < 1e-12 * np.maximum(total, 1.0))
                      | (frequency <= 0.0))
            period[first + oscillating[found]] = 1.0 / frequency[found]
            for index in oscillating[~found]:
                peaks = np.flatnonzero(peak_mask[index]) + 1
                if peaks.size >= 2:
                    period[first + index] = np.mean(
                        np.diff(window_times[peaks]))

    return OscillationMetricsBatch(amplitude=amplitude, period=period,
                                   sustained=sustained, mean_value=mean_value,
                                   n_peaks=n_peaks)
