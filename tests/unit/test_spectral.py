"""Unit tests for the spectral / peak-detection helpers."""

import numpy as np
import pytest

from repro.exceptions import AnalysisError
from repro.numerics.spectral import detect_peaks, dominant_period, power_spectrum


class TestPowerSpectrum:
    def test_pure_sine_concentrates_power(self):
        dt = 0.01
        times = np.arange(0.0, 10.0, dt)
        signal = np.sin(2.0 * np.pi * 0.5 * times)
        frequencies, power = power_spectrum(signal, dt)
        peak_frequency = frequencies[np.argmax(power)]
        assert peak_frequency == pytest.approx(0.5, abs=0.05)

    def test_mean_removed(self):
        dt = 0.1
        signal = 5.0 + np.sin(np.arange(0.0, 20.0, dt))
        frequencies, power = power_spectrum(signal, dt)
        assert power[0] == pytest.approx(0.0, abs=1e-6)

    def test_too_short_raises(self):
        with pytest.raises(AnalysisError):
            power_spectrum(np.array([1.0, 2.0]), 0.1)


class TestDominantPeriod:
    def test_recovers_known_period(self):
        dt = 0.05
        times = np.arange(0.0, 50.0, dt)
        signal = 3.0 + 2.0 * np.sin(2.0 * np.pi * times / 7.0)
        assert dominant_period(signal, dt) == pytest.approx(7.0, rel=0.05)

    def test_constant_signal_raises(self):
        with pytest.raises(AnalysisError):
            dominant_period(np.full(100, 4.2), 0.1)

    def test_superposition_picks_strongest(self):
        dt = 0.02
        times = np.arange(0.0, 40.0, dt)
        signal = 5.0 * np.sin(2.0 * np.pi * times / 4.0) \
            + 0.5 * np.sin(2.0 * np.pi * times / 1.3)
        assert dominant_period(signal, dt) == pytest.approx(4.0, rel=0.05)


class TestDetectPeaks:
    def test_single_peak(self):
        signal = np.array([0.0, 1.0, 3.0, 1.0, 0.0])
        assert detect_peaks(signal) == [2]

    def test_multiple_peaks_of_sine(self):
        times = np.linspace(0.0, 4.0 * np.pi, 400)
        peaks = detect_peaks(np.sin(times))
        assert len(peaks) == 2

    def test_monotone_signal_has_no_peaks(self):
        assert detect_peaks(np.arange(10.0)) == []

    def test_short_signal_has_no_peaks(self):
        assert detect_peaks(np.array([1.0, 2.0])) == []
