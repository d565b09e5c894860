"""Unit tests for the text phase portraits."""

import numpy as np
import pytest

from repro import SystemParameters
from repro.analysis import render_phase_portrait, render_trajectory_portrait
from repro.characteristics import integrate_characteristic
from repro.control.jrj import JRJControl
from repro.exceptions import AnalysisError


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
