"""Unit tests for the Poincaré-section return-map analysis."""

import numpy as np
import pytest

from oracles import compute_poincare_section
from repro import DelayedSystem, integrate_characteristic
from repro.characteristics.trajectory import CharacteristicTrajectory
from repro.exceptions import AnalysisError


def _synthetic_trajectory(queue, rate, mu=1.0, q_target=10.0):
    queue = np.asarray(queue, dtype=float)
    rate = np.asarray(rate, dtype=float)
    times = np.arange(queue.size, dtype=float)
    return CharacteristicTrajectory(times=times, queue=queue, rate=rate,
                                    mu=mu, q_target=q_target)


class TestSectionExtraction:
    def test_detects_downward_crossing(self):
        trajectory = _synthetic_trajectory([8.0, 12.0, 9.0], [1.0, 1.2, 0.9])
        section = compute_poincare_section(trajectory, direction="down")
        assert section.n_crossings == 1
        # Crossing happens between samples 1 and 2.
        assert 1.0 <= section.crossing_times[0] <= 2.0

    def test_direction_filtering(self):
        trajectory = _synthetic_trajectory([8.0, 12.0, 9.0, 12.0, 8.0],
                                           [1.0, 1.2, 0.9, 1.1, 0.8])
        down = compute_poincare_section(trajectory, direction="down")
        up = compute_poincare_section(trajectory, direction="up")
        both = compute_poincare_section(trajectory, direction="both")
        assert down.n_crossings == 2
        assert up.n_crossings == 2
        assert both.n_crossings == 4

    def test_no_crossing_raises(self):
        trajectory = _synthetic_trajectory([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        with pytest.raises(AnalysisError):
            compute_poincare_section(trajectory)

    def test_invalid_direction_rejected(self):
        trajectory = _synthetic_trajectory([8.0, 12.0, 9.0], [1.0, 1.2, 0.9])
        with pytest.raises(AnalysisError):
            compute_poincare_section(trajectory, direction="sideways")


class TestReturnMap:
    def test_convergent_spiral_contracts(self, canonical_params, jrj_control):
        trajectory = integrate_characteristic(jrj_control, canonical_params,
                                              q0=0.0, rate0=0.5, t_end=900.0,
                                              dt=0.02)
        section = compute_poincare_section(trajectory, direction="down")
        assert section.n_crossings >= 3
        factor = section.contraction_factor()
        assert 0.0 < factor < 1.0
        assert section.converges()

    def test_delayed_limit_cycle_does_not_contract(self, canonical_params,
                                                   jrj_control):
        trajectory = DelayedSystem(jrj_control, canonical_params, 6.0).solve(
            0.0, 0.5, t_end=800.0, dt=0.05)
        section = compute_poincare_section(trajectory, direction="down",
                                           skip_fraction=0.4)
        factor = section.contraction_factor()
        assert factor > 0.95
        assert not section.converges()

    def test_cycle_period_matches_oscillation_measurement(self,
                                                          canonical_params,
                                                          jrj_control):
        from repro import measure_oscillation

        trajectory = DelayedSystem(jrj_control, canonical_params, 5.0).solve(
            0.0, 0.5, t_end=800.0, dt=0.05)
        section = compute_poincare_section(trajectory, direction="down",
                                           skip_fraction=0.4)
        summary = measure_oscillation(trajectory)
        assert section.cycle_period_estimate() == pytest.approx(summary.period,
                                                                rel=0.25)

    def test_return_map_shape(self):
        trajectory = _synthetic_trajectory([8.0, 12.0, 9.0, 12.0, 8.0],
                                           [1.0, 1.3, 0.9, 1.2, 0.8])
        section = compute_poincare_section(trajectory, direction="down")
        pairs = section.return_map()
        assert pairs.shape == (section.n_crossings - 1, 2)

    def test_single_crossing_contraction_raises(self):
        trajectory = _synthetic_trajectory([8.0, 12.0, 9.0], [1.0, 1.2, 0.9])
        section = compute_poincare_section(trajectory, direction="down")
        with pytest.raises(AnalysisError):
            section.contraction_factor()
        assert section.converges()
