"""Integration tests for the paper's headline claims.

Each test corresponds to a claim in the abstract / introduction:

1. Without feedback delay, the JRJ (linear-increase / exponential-decrease)
   algorithm is provably stable -- a convergent spiral to ``(q̂, μ)``
   (Theorem 1, Figure 3).
2. Without feedback delay and with equal parameters the algorithm is fair;
   with unequal parameters the exact shares are determined by the
   parameters (Section 6).
3. Delayed feedback introduces oscillations for every individual user
   (Section 7).
4. Heterogeneous feedback delays introduce unfairness -- the longer path
   obtains less throughput (Section 7).
5. Linear-increase/linear-decrease can oscillate even without delay, whereas
   the oscillations of the JRJ law are due to delay alone.
"""

import numpy as np
import pytest

from repro import (
    DelayedSystem,
    JRJControl,
    SourceParameters,
    SystemParameters,
    delay_sweep,
    fairness_report,
    integrate_characteristic,
    measure_oscillation,
    MultiSourceModel,
    predicted_equilibrium_shares,
    verify_theorem1,
)
from oracles import is_convergent_spiral
from repro.analysis import oscillation_metrics
from repro.control.linear import LinearIncreaseLinearDecrease
from repro.delay.round_trip import RoundTripUpdateModel
from repro.workloads import (
    heterogeneous_parameters_scenario,
    homogeneous_sources_scenario,
    single_source_scenario,
)


class TestClaim1Stability:
    """Theorem 1: the undelayed JRJ system converges to (q_target, mu)."""

    @pytest.mark.parametrize("c0,c1,q_target,mu", [
        (0.05, 0.2, 10.0, 1.0),
        (0.1, 0.5, 5.0, 1.0),
        (0.02, 0.1, 20.0, 2.0),
    ])
    def test_convergence_across_parameters(self, c0, c1, q_target, mu):
        params = SystemParameters(mu=mu, q_target=q_target, c0=c0, c1=c1)
        verification = verify_theorem1(params)
        assert verification.converges
        assert verification.limit_point_reached

    @pytest.mark.parametrize("q0,rate0", [(0.0, 0.1), (5.0, 1.5), (30.0, 0.2)])
    def test_convergence_across_initial_conditions(self, q0, rate0):
        params, _ = single_source_scenario()
        verification = verify_theorem1(params, q0=q0, rate0=rate0, t_end=900.0)
        assert verification.converges
        assert verification.final_queue_error < 2.0

    def test_successive_peaks_contract(self):
        params, _ = single_source_scenario()
        verification = verify_theorem1(params, t_end=900.0)
        assert verification.mean_contraction_ratio < 1.0


class TestClaim2Fairness:
    """Section 6: fairness with equal parameters, exact shares otherwise."""

    def test_equal_parameters_equal_shares(self):
        params, sources = homogeneous_sources_scenario(n_sources=4)
        trajectory = MultiSourceModel(sources, params).solve(t_end=700.0,
                                                             dt=0.05)
        report = fairness_report(trajectory, sources)
        assert report.jain_index > 0.999
        assert np.allclose(report.observed_shares, 0.25, atol=0.01)

    def test_unequal_parameters_exact_share_formula(self):
        params, sources = heterogeneous_parameters_scenario(
            ratios=(1.0, 2.0, 4.0))
        trajectory = MultiSourceModel(sources, params).solve(t_end=900.0,
                                                             dt=0.05)
        report = fairness_report(trajectory, sources)
        predicted = predicted_equilibrium_shares(sources)
        assert np.allclose(report.observed_shares, predicted, atol=0.03)
        # Shares follow the 1:2:4 ratio of the increase rates.
        assert report.observed_shares[2] > report.observed_shares[1] \
            > report.observed_shares[0]

    def test_aggregate_rate_matches_capacity(self):
        params, sources = homogeneous_sources_scenario(n_sources=3)
        trajectory = MultiSourceModel(sources, params).solve(t_end=700.0,
                                                             dt=0.05)
        total = float(np.sum(trajectory.time_average_rates()))
        assert total == pytest.approx(params.mu, rel=0.05)


class TestClaim3DelayOscillations:
    """Section 7: delayed feedback introduces cyclic behaviour."""

    def test_no_delay_converges_with_delay_oscillates(self):
        params, control = single_source_scenario()
        summaries = delay_sweep(control, params, delays=[0.0, 4.0],
                                t_end=600.0, dt=0.05)
        assert not summaries[0].sustained
        assert summaries[1].sustained
        assert summaries[1].queue_amplitude > 10.0 * max(
            summaries[0].queue_amplitude, 0.01)

    def test_amplitude_and_period_increase_with_delay(self):
        params, control = single_source_scenario()
        summaries = delay_sweep(control, params, delays=[2.0, 5.0, 10.0],
                                t_end=700.0, dt=0.05)
        amplitudes = [s.queue_amplitude for s in summaries]
        periods = [s.period for s in summaries]
        assert amplitudes == sorted(amplitudes)
        assert periods == sorted(periods)

    def test_oscillation_affects_rate_as_well_as_queue(self):
        params, control = single_source_scenario()
        trajectory = DelayedSystem(control, params, delay=5.0).solve(
            0.0, 0.5, t_end=600.0, dt=0.05)
        rate_metrics = oscillation_metrics(trajectory.times, trajectory.rate)
        assert rate_metrics.sustained


class TestClaim4DelayUnfairness:
    """Section 7: heterogeneous feedback delays cause unfairness."""

    def test_longer_round_trip_gets_smaller_share(self):
        params, _ = single_source_scenario()
        sources = [
            SourceParameters(c0=0.05, c1=0.2, delay=0.5, initial_rate=0.3,
                             name="delay-0.5"),
            SourceParameters(c0=0.05, c1=0.2, delay=2.0, initial_rate=0.3,
                             name="delay-2"),
        ]
        result = RoundTripUpdateModel(sources, params).run(t_end=1500.0,
                                                           dt=0.05)
        assert result.throughputs[1] < result.throughputs[0]
        assert result.jain_index < 0.95

    def test_share_matches_delay_scaled_prediction(self):
        params, _ = single_source_scenario()
        sources = [
            SourceParameters(c0=0.05, c1=0.2, delay=1.0, initial_rate=0.3,
                             name="delay-1"),
            SourceParameters(c0=0.05, c1=0.2, delay=3.0, initial_rate=0.3,
                             name="delay-3"),
        ]
        result = RoundTripUpdateModel(sources, params).run(t_end=2000.0,
                                                           dt=0.05)
        assert np.allclose(result.shares, result.predicted_shares, atol=0.06)


class TestClaim5AlgorithmComparison:
    """Linear/linear oscillates on its own; JRJ needs delay to oscillate."""

    def test_jrj_without_delay_converges(self):
        params, control = single_source_scenario()
        trajectory = integrate_characteristic(control, params, q0=0.0,
                                              rate0=0.5, t_end=900.0, dt=0.05)
        assert is_convergent_spiral(trajectory)

    def test_linear_linear_without_delay_keeps_oscillating(self):
        params, _ = single_source_scenario()
        control = LinearIncreaseLinearDecrease(c0=0.05, d0=0.05, q_target=10.0)
        trajectory = integrate_characteristic(control, params, q0=0.0,
                                              rate0=0.5, t_end=900.0, dt=0.05)
        metrics = oscillation_metrics(trajectory.times, trajectory.queue,
                                      steady_fraction=0.3)
        assert metrics.sustained
        assert metrics.amplitude > 1.0

    def test_linear_linear_amplitude_does_not_decay(self):
        params, _ = single_source_scenario()
        control = LinearIncreaseLinearDecrease(c0=0.05, d0=0.05, q_target=10.0)
        trajectory = integrate_characteristic(control, params, q0=0.0,
                                              rate0=0.5, t_end=1200.0, dt=0.05)
        half = trajectory.times.size // 2
        first_half_amplitude = np.max(trajectory.queue[:half]) - np.min(
            trajectory.queue[:half])
        second_half_amplitude = np.max(trajectory.queue[half:]) - np.min(
            trajectory.queue[half:])
        assert second_half_amplitude > 0.5 * first_half_amplitude
