"""Unit tests for the phase-plane analysis (Section 5 machinery)."""

import numpy as np
import pytest

from repro import (
    JRJControl,
    SystemParameters,
    analyze_spiral,
    find_equilibrium,
    integrate_characteristic,
    quadrant_drift_table,
)
from oracles import is_convergent_spiral
from repro.characteristics.limit_cycle import peak_contraction_ratios
from repro.characteristics.phase_plane import drift_field
from repro.characteristics.theorem1 import verify_theorem1


class TestQuadrantDrifts:
    def test_figure2_sign_pattern_for_jrj(self, canonical_params, jrj_control):
        """Reproduce the drift-direction table of Figure 2."""
        table = quadrant_drift_table(jrj_control, canonical_params)
        signs = {row.quadrant: (row.q_drift_sign, row.v_drift_sign)
                 for row in table}
        assert signs["I"] == (1, 1)      # up and to the right
        assert signs["II"] == (1, -1)    # right but decreasing rate
        assert signs["III"] == (-1, -1)  # down and to the left
        assert signs["IV"] == (-1, 1)    # left but increasing rate

    def test_direction_strings(self, canonical_params, jrj_control):
        table = quadrant_drift_table(jrj_control, canonical_params)
        directions = {row.quadrant: row.direction for row in table}
        assert directions["I"] == "up-right"
        assert directions["III"] == "down-left"

    def test_probe_points_sit_half_the_target_and_a_quarter_mu_away(
            self, canonical_params, jrj_control):
        table = quadrant_drift_table(jrj_control, canonical_params)
        points = {row.quadrant: row.sample_point for row in table}
        dq = max(0.5 * canonical_params.q_target, 1.0)
        dv = 0.25 * canonical_params.mu
        q_target = canonical_params.q_target
        assert points == {"I": (q_target - dq, dv), "II": (q_target + dq, dv),
                          "III": (q_target + dq, -dv),
                          "IV": (q_target - dq, -dv)}

    def test_drift_field_shapes(self, canonical_params, jrj_control):
        q_values = np.linspace(0.0, 20.0, 11)
        v_values = np.linspace(-0.5, 0.5, 7)
        dq, dv = drift_field(jrj_control, canonical_params, q_values, v_values)
        assert dq.shape == (11, 7)
        assert dv.shape == (11, 7)
        # dq/dt equals v everywhere except at the pinned q = 0 boundary.
        assert dq[5, 0] == pytest.approx(v_values[0])

    def test_drift_field_pins_empty_queue(self, canonical_params, jrj_control):
        dq, _ = drift_field(jrj_control, canonical_params,
                            np.array([0.0]), np.array([-0.5]))
        assert dq[0, 0] == 0.0


class TestCharacteristicTrajectory:
    def test_trajectory_crosses_target_line(self, canonical_params, jrj_control):
        trajectory = integrate_characteristic(jrj_control, canonical_params,
                                              q0=0.0, rate0=0.5, t_end=200.0)
        offset = trajectory.queue - canonical_params.q_target
        assert np.any(offset[:-1] * offset[1:] < 0.0)

    def test_distance_to_limit_point_eventually_shrinks(self, canonical_params,
                                                        jrj_control):
        trajectory = integrate_characteristic(jrj_control, canonical_params,
                                              q0=0.0, rate0=0.5, t_end=800.0,
                                              dt=0.05)
        distance = np.hypot(
            (trajectory.queue - canonical_params.q_target)
            / canonical_params.q_target,
            (trajectory.rate - canonical_params.mu) / canonical_params.mu)
        assert distance[-1] < 0.2 * np.max(distance)

    def test_time_average_rate_close_to_mu(self, canonical_params, jrj_control):
        trajectory = integrate_characteristic(jrj_control, canonical_params,
                                              q0=0.0, rate0=0.5, t_end=800.0,
                                              dt=0.05)
        assert trajectory.time_average_rate() == pytest.approx(
            canonical_params.mu, rel=0.1)


class TestEquilibrium:
    def test_jrj_equilibrium_is_target_point(self, canonical_params, jrj_control):
        equilibrium = find_equilibrium(jrj_control, canonical_params)
        assert equilibrium.queue == pytest.approx(canonical_params.q_target)
        assert equilibrium.rate == pytest.approx(canonical_params.mu)
        assert equilibrium.is_sliding
        assert equilibrium.growth_rate == 0.0


class TestSpiralAnalysis:
    def test_jrj_spiral_converges(self, canonical_params, jrj_control):
        trajectory = integrate_characteristic(jrj_control, canonical_params,
                                              q0=0.0, rate0=0.5, t_end=900.0,
                                              dt=0.05)
        analysis = analyze_spiral(trajectory)
        assert analysis.converges
        assert analysis.limit_cycle_amplitude < 1.0

    def test_is_convergent_spiral_predicate(self, canonical_params, jrj_control):
        trajectory = integrate_characteristic(jrj_control, canonical_params,
                                              q0=0.0, rate0=0.5, t_end=900.0,
                                              dt=0.05)
        assert is_convergent_spiral(trajectory)

    def test_peak_contraction_ratios(self):
        ratios = peak_contraction_ratios([8.0, 4.0, 2.0, 1.0])
        assert np.allclose(ratios, 0.5)

    def test_peak_contraction_needs_two_peaks(self):
        assert peak_contraction_ratios([3.0]).size == 0
        assert peak_contraction_ratios([]).size == 0


class TestTheorem1:
    def test_theorem1_holds_for_canonical_parameters(self, canonical_params):
        verification = verify_theorem1(canonical_params, t_end=900.0)
        assert verification.converges
        assert verification.limit_point_reached
        assert verification.mean_contraction_ratio < 1.0

    def test_theorem1_holds_for_other_parameters(self):
        params = SystemParameters(mu=2.0, q_target=5.0, c0=0.1, c1=0.5)
        verification = verify_theorem1(params, t_end=400.0)
        assert verification.converges
        assert verification.final_queue_error < 1.0
        assert verification.final_rate_error < 0.3

    def test_theorem1_independent_of_initial_condition(self, canonical_params):
        high_start = verify_theorem1(canonical_params, q0=25.0, rate0=1.8,
                                     t_end=900.0)
        assert high_start.converges
        assert high_start.limit_point_reached
