"""Unit tests for the analysis toolkit (oscillation metrics, reports)."""

import numpy as np
import pytest

from repro.analysis import (
    format_key_values,
    format_series,
    format_table,
    oscillation_metrics,
)
from repro.exceptions import AnalysisError


class TestOscillationMetrics:
    def test_sine_wave_metrics(self):
        times = np.linspace(0.0, 100.0, 2000)
        values = 5.0 + 2.0 * np.sin(2.0 * np.pi * times / 12.5)
        metrics = oscillation_metrics(times, values)
        assert metrics.sustained
        assert metrics.amplitude == pytest.approx(2.0, rel=0.05)
        assert metrics.period == pytest.approx(12.5, rel=0.1)
        assert metrics.mean_value == pytest.approx(5.0, abs=0.1)

    def test_decaying_series_not_sustained(self):
        times = np.linspace(0.0, 100.0, 1000)
        values = 10.0 + 3.0 * np.exp(-times / 5.0)
        metrics = oscillation_metrics(times, values)
        assert not metrics.sustained

    def test_short_series_rejected(self):
        with pytest.raises(AnalysisError):
            oscillation_metrics(np.arange(4.0), np.arange(4.0))

    def test_invalid_steady_fraction_rejected(self):
        times = np.linspace(0.0, 10.0, 100)
        with pytest.raises(AnalysisError):
            oscillation_metrics(times, np.sin(times), steady_fraction=0.0)


class TestReportFormatting:
    def test_format_table_alignment(self):
        rows = [{"name": "a", "value": 1.0}, {"name": "bbb", "value": 22.5}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "no rows" in format_table([])

    def test_format_series_thins_long_series(self):
        xs = np.linspace(0.0, 1.0, 1000)
        ys = xs ** 2
        text = format_series("curve", xs, ys, max_points=10)
        # Title + header + separator + at most 12 rows.
        assert len(text.splitlines()) <= 15

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("bad", [1.0, 2.0], [1.0])

    def test_format_key_values(self):
        text = format_key_values("metrics", {"mean": 1.234567, "count": 3})
        assert "metrics" in text
        assert "mean" in text
        assert "count" in text

    def test_format_handles_nan_and_extremes(self):
        rows = [{"a": float("nan"), "b": 1e-9, "c": 1e9}]
        text = format_table(rows)
        assert "nan" in text
        assert "e" in text  # scientific notation used for the extremes
