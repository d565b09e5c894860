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
           "oscillation_envelope_batch", "oscillation_metrics",
           "oscillation_metrics_batch"]

#: Elements per column block of :func:`oscillation_metrics_batch` (512 KiB
#: of float64 window rows): its temporaries stay a few times this size
#: whatever the batch.
_BLOCK_ELEMENTS = 1 << 16

#: Amplitude at or below which a series' oscillation is not sustained.
_AMPLITUDE_FLOOR = 0.05


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
        Whether the amplitude exceeds ``_AMPLITUDE_FLOOR`` (0.05).
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
                        steady_fraction: float = 0.5) -> OscillationMetrics:
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
        times, values[:, None], steady_fraction=steady_fraction).member(0)


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


def _steady_window(times, values, steady_fraction: float):
    """The analysed ``(times, values)`` rows of a ``(n, batch)`` block: its
    final *steady_fraction*, after checking the shapes."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or times.shape != (values.shape[0],):
        raise AnalysisError(
            "batched oscillation metrics need times of shape (n,) and "
            "values of shape (n, batch)")
    if times.size < 8:
        raise AnalysisError("need at least eight samples for oscillation metrics")
    if not 0.0 < steady_fraction <= 1.0:
        raise AnalysisError("steady_fraction must lie in (0, 1]")
    start = int((1.0 - steady_fraction) * times.size)
    return times[start:], values[start:]


def _row_blocks(window: np.ndarray):
    """Yield ``(columns, rows)``: a slice of *window*'s columns and their
    transpose as contiguous rows of at most ``_BLOCK_ELEMENTS`` elements."""
    width, batch = window.shape
    block = max(_BLOCK_ELEMENTS // width, 1)
    for first in range(0, batch, block):
        columns = slice(first, min(first + block, batch))
        yield columns, np.ascontiguousarray(window[:, columns].T)


def _envelope(rows: np.ndarray):
    """Half the peak-to-trough swing and the mean of each contiguous row."""
    return 0.5 * (rows.max(axis=1) - rows.min(axis=1)), rows.mean(axis=1)


def oscillation_envelope_batch(times: np.ndarray, values: np.ndarray,
                               steady_fraction: float = 0.5):
    """Column-wise ``(amplitude, mean_value)`` of a ``(n, batch)`` block.

    The two fields of :func:`oscillation_metrics_batch` that need neither
    peaks nor a spectrum, computed the same way and so bit-identical to
    its ``amplitude`` and ``mean_value``: all that the gain-design score
    reads of a window.
    """
    _, window = _steady_window(times, values, steady_fraction)
    amplitude = np.empty(window.shape[1])
    mean_value = np.empty(window.shape[1])
    for columns, rows in _row_blocks(window):
        amplitude[columns], mean_value[columns] = _envelope(rows)
    return amplitude, mean_value


def oscillation_metrics_batch(times: np.ndarray, values: np.ndarray,
                              steady_fraction: float = 0.5
                              ) -> OscillationMetricsBatch:
    """Column-wise oscillation metrics of a ``(n, batch)`` block.

    The final *steady_fraction* of the samples is analysed in blocks of
    columns, each transposed once into contiguous rows of at most
    ``_BLOCK_ELEMENTS`` elements, so no temporary grows with the batch.
    Every field is a row-wise reduction: amplitude from the row extremes,
    peaks from the local-maximum mask of
    :func:`~repro.numerics.spectral.detect_peaks`, the mean, and the period
    from the strongest non-zero bin of one ``rfft`` over the sustained rows
    (as :func:`~repro.numerics.spectral.dominant_period` finds it).
    Reductions along a contiguous row use the same pairwise summation as a
    1-D call, so every member is bit-identical to analysing its column
    alone.
    """
    window_times, window = _steady_window(times, values, steady_fraction)
    width, batch = window.shape
    if width >= 8:
        dt = float(np.mean(np.diff(window_times)))
        frequencies = np.fft.rfftfreq(width, d=dt)

    amplitude = np.empty(batch)
    sustained = np.empty(batch, dtype=bool)
    mean_value = np.empty(batch)
    n_peaks = np.empty(batch, dtype=np.int_)
    period = np.full(batch, np.nan)
    for columns, rows in _row_blocks(window):
        first = columns.start
        amplitude[columns], mean_value[columns] = _envelope(rows)
        sustained[columns] = amplitude[columns] > _AMPLITUDE_FLOOR
        interior = rows[:, 1:-1]
        peak_mask = (interior > rows[:, :-2]) & (interior >= rows[:, 2:])
        n_peaks[columns] = peak_mask.sum(axis=1)

        oscillating = np.flatnonzero(sustained[columns] & (width >= 8))
        if oscillating.size:
            spectrum = np.fft.rfft(rows[oscillating]
                                   - mean_value[first + oscillating, None],
                                   axis=1)
            # Above the floor the window's power is far above the 1e-12
            # relative threshold of dominant_period, so the strongest
            # non-zero bin always gives the period.
            power = (np.abs(spectrum) ** 2)[:, 1:]
            period[first + oscillating] = 1.0 / frequencies[
                1 + np.argmax(power, axis=1)]

    return OscillationMetricsBatch(amplitude=amplitude, period=period,
                                   sustained=sustained, mean_value=mean_value,
                                   n_peaks=n_peaks)
