"""Unit tests for traffic calibration and phase portraits."""

import numpy as np
import pytest

from repro import SystemParameters
from repro.analysis import render_phase_portrait, render_trajectory_portrait
from repro.characteristics import integrate_characteristic
from repro.control.jrj import JRJControl
from repro.exceptions import AnalysisError, ConfigurationError
from repro.workloads import (
    OnOffArrivals,
    PoissonArrivals,
    estimate_sigma_from_counts,
    sigma_for_poisson,
)


class TestTrafficCalibration:
    def test_poisson_sigma_matches_theory(self):
        rate = 4.0
        counts = PoissonArrivals(rate=rate, seed=3).counts(20000, interval=1.0)
        estimated = estimate_sigma_from_counts(counts)
        assert estimated == pytest.approx(sigma_for_poisson(rate), rel=0.05)

    def test_interval_scaling(self):
        rate = 2.0
        counts = PoissonArrivals(rate=rate, seed=5).counts(20000, interval=0.5)
        estimated = estimate_sigma_from_counts(counts, interval=0.5)
        assert estimated == pytest.approx(np.sqrt(rate), rel=0.1)

    def test_onoff_traffic_is_burstier_than_poisson(self):
        onoff = OnOffArrivals(peak_rate=8.0, mean_on_intervals=10.0,
                              mean_off_intervals=10.0, seed=2)
        onoff_counts = onoff.counts(20000)
        poisson_counts = PoissonArrivals(rate=onoff.average_rate,
                                         seed=2).counts(20000)
        sigma_onoff = estimate_sigma_from_counts(onoff_counts)
        sigma_poisson = estimate_sigma_from_counts(poisson_counts)
        assert sigma_onoff > 1.5 * sigma_poisson

    def test_onoff_average_rate(self):
        onoff = OnOffArrivals(peak_rate=10.0, mean_on_intervals=5.0,
                              mean_off_intervals=5.0, seed=0)
        counts = onoff.counts(50000)
        assert np.mean(counts) == pytest.approx(onoff.average_rate, rel=0.1)

    def test_service_counts_reduce_variance_when_correlated(self):
        arrivals = PoissonArrivals(rate=5.0, seed=9).counts(5000)
        # Perfectly correlated service cancels all variability.
        sigma = estimate_sigma_from_counts(arrivals, service_counts=arrivals)
        assert sigma == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(rate=0.0)
        with pytest.raises(ConfigurationError):
            OnOffArrivals(peak_rate=-1.0)
        with pytest.raises(AnalysisError):
            estimate_sigma_from_counts(np.array([1.0]))
        with pytest.raises(AnalysisError):
            estimate_sigma_from_counts(np.array([1.0, 2.0]),
                                       service_counts=np.array([1.0]))
        with pytest.raises(ConfigurationError):
            sigma_for_poisson(0.0)


class TestPhasePortrait:
    def test_render_contains_axes_and_marks(self):
        theta = np.linspace(0.0, 4.0 * np.pi, 500)
        q = 10.0 + 5.0 * np.exp(-theta / 8.0) * np.cos(theta)
        v = 0.5 * np.exp(-theta / 8.0) * np.sin(theta)
        text = render_phase_portrait([(q, v)], q_target=10.0)
        assert "a" in text
        assert "*" in text
        assert "q = q_target" in text
        # One header line + height rows + one footer line.
        assert len(text.splitlines()) == 24 + 2

    def test_multiple_trajectories_use_distinct_marks(self):
        q1 = np.linspace(0.0, 10.0, 50)
        v1 = np.zeros(50) + 0.3
        q2 = np.linspace(0.0, 10.0, 50)
        v2 = np.zeros(50) - 0.3
        text = render_phase_portrait([(q1, v1), (q2, v2)], q_target=5.0)
        assert "a" in text
        assert "b" in text

    def test_render_trajectory_portrait_from_characteristic(self):
        params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2)
        control = JRJControl(0.05, 0.2, 10.0)
        trajectory = integrate_characteristic(control, params, q0=0.0,
                                              rate0=0.5, t_end=200.0, dt=0.1)
        text = render_trajectory_portrait(trajectory)
        assert "a" in text

    def test_validation(self):
        with pytest.raises(AnalysisError):
            render_phase_portrait([], q_target=1.0)
        with pytest.raises(AnalysisError):
            render_phase_portrait([(np.zeros(3), np.zeros(4))], q_target=1.0)
        with pytest.raises(AnalysisError):
            render_phase_portrait([(np.zeros(3), np.zeros(3))], q_target=1.0,
                                  width=5, height=5)
