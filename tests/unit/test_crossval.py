"""Unit tests for the DES-vs-FP cross-validation harness."""

import json
import math

import pytest
from seed_engine import use_seed_engine

from repro import SystemParameters, cross_validate
from repro.crossval import (CONTROL_INTERVAL, JITTER_FRACTION,
                            matched_network_config)
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def params():
    return SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2, sigma=0.5)


@pytest.fixture(scope="module")
def small_report(params):
    # Deliberately small resolutions: this exercises the plumbing and the
    # loose physical agreement, not publication-grade accuracy.
    return cross_validate(
        params, n_sources=1, duration=800.0, t_end=60.0, nq=60, nv=48
    )


class TestMatchedConfig:
    def test_aggregate_gain_matches_single_source_model(self, params):
        config = matched_network_config(params, n_sources=4)
        assert config.service_rate == pytest.approx(params.mu)
        total_gain = sum(
            source.control_kwargs["c0"] for source in config.sources
        )
        assert total_gain == pytest.approx(params.c0)
        total_initial = sum(source.initial_rate for source in config.sources)
        assert total_initial == pytest.approx(0.5 * params.mu)

    def test_every_source_uses_the_fixed_packet_knobs(self, params):
        config = matched_network_config(params, n_sources=3)
        assert [(source.control_interval, source.jitter_fraction)
                for source in config.sources] == \
            [(CONTROL_INTERVAL, JITTER_FRACTION)] * 3

    def test_invalid_population_rejected(self, params):
        with pytest.raises(ConfigurationError):
            matched_network_config(params, n_sources=0)


class TestCrossValidate:
    def test_report_is_structurally_sound(self, small_report):
        metrics = small_report.to_dict()
        assert all(math.isfinite(value) for value in metrics.values())
        assert 0.0 <= metrics["stationary_tv_distance"] <= 1.0
        assert 0.0 <= metrics["des_mass_above_grid"] <= 1.0
        # A matched stable configuration keeps the link busy and the queue
        # near the target on both sides.
        assert 0.5 < metrics["des_utilization"] <= 1.05
        assert 0.0 < metrics["des_mean_queue"] < 2.0 * 10.0
        assert 0.0 < metrics["fp_mean_queue"] < 2.0 * 10.0

    def test_layers_agree_on_the_stationary_mean(self, small_report):
        # The continuous approximation tracks the packet-level truth to a
        # few percent at canonical parameters; 35% catches a broken
        # harness without flaking on resolution changes.
        assert small_report.mean_queue_rel_error < 0.35
        assert small_report.stationary_tv_distance < 0.6

    def test_report_round_trips_through_json(self, small_report):
        payload = json.dumps(small_report.to_dict())
        assert json.loads(payload)["n_sources"] == 1

    def test_multi_source_aggregation_path(self, params):
        report = cross_validate(
            params, n_sources=3, duration=600.0, t_end=40.0, nq=50, nv=40
        )
        assert report.n_sources == 3
        assert math.isfinite(report.mean_queue_rel_error)
        assert 0.4 < report.des_utilization <= 1.05

    def test_engines_produce_identical_des_metrics(self, params, monkeypatch):
        kwargs = dict(duration=400.0, t_end=30.0, nq=40, nv=30)
        fast = cross_validate(params, **kwargs)
        use_seed_engine(monkeypatch)
        reference = cross_validate(params, **kwargs)
        assert fast.des_mean_queue == reference.des_mean_queue
        assert fast.des_std_queue == reference.des_std_queue
        assert fast.stationary_tv_distance == reference.stationary_tv_distance
