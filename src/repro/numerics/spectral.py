"""Spectral and peak-based tools for oscillation analysis.

Section 7 of the paper predicts sustained oscillations of the queue length
and the arrival rate when feedback is delayed.  To quantify them we need the
dominant period and the oscillation amplitude of a (possibly noisy) signal.
Two complementary estimators are provided:

* :func:`dominant_period` -- FFT-based estimate of the strongest non-zero
  frequency of a detrended signal,
* :func:`detect_peaks` -- simple local-maximum detection used for
  peak-to-peak amplitude and successive-peak contraction ratios (the
  quantity appearing in the proof of Theorem 1).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..exceptions import AnalysisError

__all__ = ["power_spectrum", "dominant_period", "detect_peaks"]


def power_spectrum(signal: np.ndarray, dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(frequencies, power)`` of the detrended real signal.

    The signal mean is removed before the FFT so the zero-frequency bin does
    not dominate the spectrum.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.size < 4:
        raise AnalysisError("need at least 4 samples for a power spectrum")
    detrended = signal - np.mean(signal)
    spectrum = np.fft.rfft(detrended)
    frequencies = np.fft.rfftfreq(signal.size, d=dt)
    power = np.abs(spectrum) ** 2
    return frequencies, power


def dominant_period(signal: np.ndarray, dt: float) -> float:
    """Return the period of the strongest non-zero frequency component.

    A component whose power is below ``1e-12`` of the total (at least 1)
    counts as no oscillation.

    Raises
    ------
    AnalysisError
        If the signal is too short or has no appreciable non-zero-frequency
        content (i.e. it is essentially constant).
    """
    frequencies, power = power_spectrum(signal, dt)
    if frequencies.size < 2:
        raise AnalysisError("signal too short to estimate a period")
    nonzero_power = power[1:]
    total = float(np.sum(nonzero_power))
    if total <= 0.0 or float(np.max(nonzero_power)) < 1e-12 * max(total, 1.0):
        raise AnalysisError("signal has no detectable oscillation")
    peak_index = 1 + int(np.argmax(nonzero_power))
    frequency = frequencies[peak_index]
    if frequency <= 0.0:
        raise AnalysisError("dominant frequency is not positive")
    return float(1.0 / frequency)


def detect_peaks(signal: np.ndarray) -> List[int]:
    """Return indices of local maxima of *signal*.

    A sample is a peak if it is strictly greater than its left neighbour and
    at least as large as its right neighbour.  Plateaus report their first
    index.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.size < 3:
        return []
    interior = signal[1:-1]
    mask = (interior > signal[:-2]) & (interior >= signal[2:])
    return (np.nonzero(mask)[0] + 1).tolist()
