"""Unit tests for the multi-source model and the fairness analysis (Section 6)."""

import numpy as np
import pytest

from repro import (
    ConfigurationError,
    MultiSourceModel,
    SourceParameters,
    SystemParameters,
    fairness_report,
    jain_fairness_index,
    predicted_equilibrium_shares,
)
from repro.exceptions import AnalysisError


def _sources(*c0_values, c1=0.2):
    return [SourceParameters(c0=c0, c1=c1, initial_rate=0.2, name=f"s{i}")
            for i, c0 in enumerate(c0_values)]


class TestPredictedShares:
    def test_equal_parameters_give_equal_shares(self):
        shares = predicted_equilibrium_shares(_sources(0.05, 0.05, 0.05))
        assert np.allclose(shares, 1.0 / 3.0)

    def test_shares_proportional_to_c0_over_c1(self):
        sources = [SourceParameters(c0=0.05, c1=0.2),
                   SourceParameters(c0=0.05, c1=0.4)]
        shares = predicted_equilibrium_shares(sources)
        # Ratios 0.25 : 0.125 -> shares 2/3 : 1/3.
        assert shares[0] == pytest.approx(2.0 / 3.0)
        assert shares[1] == pytest.approx(1.0 / 3.0)

    def test_shares_sum_to_one(self):
        shares = predicted_equilibrium_shares(_sources(0.01, 0.07, 0.2, 0.05))
        assert np.sum(shares) == pytest.approx(1.0)

    def test_empty_source_list_rejected(self):
        with pytest.raises(AnalysisError):
            predicted_equilibrium_shares([])


class TestJainFairnessIndex:
    def test_equal_throughputs_give_one(self):
        assert jain_fairness_index([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_single_hog_gives_one_over_n(self):
        assert jain_fairness_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_intermediate_case(self):
        index = jain_fairness_index([3.0, 1.0])
        assert 0.5 < index < 1.0

    def test_all_zero_is_fair(self):
        assert jain_fairness_index([0.0, 0.0]) == 1.0

    def test_scale_invariant_outside_normal_range(self):
        # (Σx)² and Σx² under- or overflow here; the index must not.
        assert jain_fairness_index([2.450144079483796e-162] * 2) == 1.0
        assert jain_fairness_index([1e200, 1e200]) == 1.0
        # The doubles nearest 1e-170 and 3e-170 are 1:3 to one ulp.
        assert jain_fairness_index([1e-170, 3e-170]) == pytest.approx(
            0.8, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            jain_fairness_index([1.0, -1.0])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            jain_fairness_index([])


class TestMultiSourceModel:
    def test_requires_at_least_one_source(self, canonical_params):
        with pytest.raises(ConfigurationError):
            MultiSourceModel([], canonical_params)

    def test_trajectory_shapes(self, canonical_params):
        model = MultiSourceModel(_sources(0.05, 0.05), canonical_params)
        trajectory = model.solve(t_end=50.0, dt=0.05)
        assert trajectory.n_sources == 2
        assert trajectory.rates.shape[0] == trajectory.times.size
        assert trajectory.queue.shape == trajectory.times.shape

    def test_aggregate_rate_settles_at_service_rate(self, canonical_params):
        model = MultiSourceModel(_sources(0.05, 0.05, 0.05), canonical_params)
        trajectory = model.solve(t_end=600.0, dt=0.05)
        tail = trajectory.rates.sum(axis=1)[-trajectory.times.size // 5:]
        assert np.mean(tail) == pytest.approx(canonical_params.mu, rel=0.05)

    def test_equal_sources_get_equal_shares(self, canonical_params):
        sources = _sources(0.05, 0.05, 0.05, 0.05)
        model = MultiSourceModel(sources, canonical_params)
        trajectory = model.solve(t_end=600.0, dt=0.05)
        report = fairness_report(trajectory, sources)
        assert report.jain_index > 0.999
        assert np.allclose(report.observed_shares, 0.25, atol=0.01)

    def test_unequal_c0_shares_match_prediction(self, canonical_params):
        sources = _sources(0.05, 0.1)
        model = MultiSourceModel(sources, canonical_params)
        trajectory = model.solve(t_end=600.0, dt=0.05)
        report = fairness_report(trajectory, sources)
        assert report.max_share_error < 0.03
        assert report.observed_shares[1] > report.observed_shares[0]

    def test_unequal_c1_shares_match_prediction(self, canonical_params):
        sources = [SourceParameters(c0=0.05, c1=0.2, initial_rate=0.2, name="a"),
                   SourceParameters(c0=0.05, c1=0.6, initial_rate=0.2, name="b")]
        model = MultiSourceModel(sources, canonical_params)
        trajectory = model.solve(t_end=600.0, dt=0.05)
        report = fairness_report(trajectory, sources)
        predicted = predicted_equilibrium_shares(sources)
        assert report.observed_shares[0] > report.observed_shares[1]
        assert np.allclose(report.observed_shares, predicted, atol=0.05)

    def test_queue_and_rates_stay_non_negative(self, canonical_params):
        model = MultiSourceModel(_sources(0.05, 0.2), canonical_params)
        trajectory = model.solve(t_end=200.0, dt=0.05)
        assert np.all(trajectory.queue >= 0.0)
        assert np.all(trajectory.rates >= 0.0)

    def test_source_names_propagate(self, canonical_params):
        sources = [SourceParameters(c0=0.05, c1=0.2, name="alpha"),
                   SourceParameters(c0=0.05, c1=0.2)]
        model = MultiSourceModel(sources, canonical_params)
        trajectory = model.solve(t_end=10.0, dt=0.1)
        assert trajectory.source_names[0] == "alpha"
        assert trajectory.source_names[1] == "source-1"

    def test_fairness_report_length_mismatch_rejected(self, canonical_params):
        sources = _sources(0.05, 0.05)
        model = MultiSourceModel(sources, canonical_params)
        trajectory = model.solve(t_end=20.0, dt=0.1)
        with pytest.raises(AnalysisError):
            fairness_report(trajectory, sources[:1])

    def test_report_rows_structure(self, canonical_params):
        sources = _sources(0.05, 0.05)
        model = MultiSourceModel(sources, canonical_params)
        trajectory = model.solve(t_end=100.0, dt=0.1)
        report = fairness_report(trajectory, sources)
        rows = report.rows()
        assert len(rows) == 2
        assert {"source", "predicted_share", "observed_share",
                "observed_rate"} <= set(rows[0].keys())
