"""Unit tests for sources, network configuration and the full simulator."""

import hashlib

import numpy as np
import pytest

from repro import NetworkConfig, SimulationResult, Simulator, SourceConfig
from repro.exceptions import ConfigurationError
from repro.queueing.scenarios import dumbbell_scenario
from repro.workloads import (
    packet_level_jrj_scenario,
    packet_level_window_scenario,
)


class TestSourceConfig:
    def test_defaults_valid(self):
        config = SourceConfig()
        assert config.kind == "rate"

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceConfig(kind="carrier-pigeon")

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceConfig(feedback_delay=-1.0)

    def test_window_source_needs_window_of_at_least_one(self):
        with pytest.raises(ConfigurationError):
            SourceConfig(kind="window", initial_window=0.5)


class TestNetworkConfig:
    def test_requires_sources(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(service_rate=10.0, sources=[])

    def test_requires_positive_service_rate(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(service_rate=0.0, sources=[SourceConfig()])

    def test_source_names_generated(self):
        config = NetworkConfig(service_rate=1.0,
                               sources=[SourceConfig(), SourceConfig(name="x")])
        assert config.source_names() == ["source-0", "x"]
        assert config.n_sources == 2


class TestRateBasedSimulation:
    def test_single_jrj_source_tracks_target_queue(self):
        config = packet_level_jrj_scenario(n_sources=1, service_rate=10.0,
                                           q_target=10.0)
        result = Simulator(config).run(duration=300.0)
        assert isinstance(result, SimulationResult)
        # The time-average queue should sit in the vicinity of the target.
        assert 3.0 < result.mean_queue < 20.0

    def test_utilisation_close_to_capacity(self):
        config = packet_level_jrj_scenario(n_sources=2, service_rate=10.0)
        result = Simulator(config).run(duration=300.0)
        assert 0.85 < result.utilization() <= 1.05

    def test_two_equal_sources_are_fair(self):
        config = packet_level_jrj_scenario(n_sources=2, service_rate=10.0)
        result = Simulator(config).run(duration=300.0)
        assert result.fairness_index() > 0.98

    def test_no_losses_with_infinite_buffer(self):
        config = packet_level_jrj_scenario(n_sources=2, service_rate=10.0,
                                           buffer_size=None)
        result = Simulator(config).run(duration=100.0)
        assert result.total_losses == 0

    def test_queue_length_series_resampling(self):
        config = packet_level_jrj_scenario(n_sources=1, service_rate=10.0)
        result = Simulator(config).run(duration=50.0)
        times, values = result.queue_length_series(n_samples=100)
        assert times.shape == (100,)
        assert values.shape == (100,)
        assert np.all(values >= 0.0)

    def test_invalid_duration_rejected(self):
        config = packet_level_jrj_scenario(n_sources=1)
        with pytest.raises(ConfigurationError):
            Simulator(config).run(duration=0.0)

    def test_deterministic_given_seed(self):
        config = packet_level_jrj_scenario(n_sources=2, service_rate=10.0,
                                           seed=3)
        first = Simulator(config).run(duration=60.0)
        second = Simulator(config).run(duration=60.0)
        assert first.throughput_list() == second.throughput_list()
        assert first.mean_queue == pytest.approx(
            second.mean_queue)


class TestWindowBasedSimulation:
    def test_jacobson_sources_fill_the_link(self):
        config = packet_level_window_scenario(n_sources=2, service_rate=10.0,
                                              buffer_size=30, scheme="jacobson")
        result = Simulator(config).run(duration=200.0)
        assert result.utilization() > 0.8

    def test_jacobson_with_finite_buffer_experiences_losses(self):
        config = packet_level_window_scenario(n_sources=2, service_rate=10.0,
                                              buffer_size=20, scheme="jacobson")
        result = Simulator(config).run(duration=200.0)
        assert result.total_losses > 0

    def test_decbit_marks_before_the_buffer_fills(self):
        config = packet_level_window_scenario(n_sources=2, service_rate=10.0,
                                              buffer_size=40, scheme="decbit")
        result = Simulator(config).run(duration=200.0)
        decbit_queue = result.mean_queue

        config_tcp = packet_level_window_scenario(n_sources=2,
                                                  service_rate=10.0,
                                                  buffer_size=40,
                                                  scheme="jacobson")
        tcp_queue = Simulator(config_tcp).run(duration=200.0).mean_queue
        # Explicit marking reacts earlier, so the DECbit queue sits lower
        # than the loss-driven Jacobson queue.
        assert decbit_queue < tcp_queue

    def test_window_trace_recorded(self):
        config = packet_level_window_scenario(n_sources=1, service_rate=10.0,
                                              buffer_size=20)
        simulator = Simulator(config)
        result = simulator.run(duration=100.0)
        trace = result.trace.source_rates[0]
        assert len(trace) > 10
        assert np.max(trace.values) > 1.0

    def test_unknown_window_scheme_rejected(self):
        config = NetworkConfig(
            service_rate=10.0,
            sources=[SourceConfig(kind="window", control_name="unknown")])
        with pytest.raises(ConfigurationError):
            Simulator(config)

    def test_equal_rtt_window_sources_are_fair(self):
        config = packet_level_window_scenario(n_sources=2, service_rate=10.0,
                                              buffer_size=30,
                                              round_trip_delays=[0.5, 0.5])
        result = Simulator(config).run(duration=300.0)
        assert result.fairness_index() > 0.95


def _trace_digest(trace):
    """SHA-256 over the raw bytes of every series and counter of a trace."""
    digest = hashlib.sha256()
    digest.update(trace.queue_length.times.tobytes())
    digest.update(trace.queue_length.values.tobytes())
    for key in sorted(trace.source_rates):
        digest.update(trace.source_rates[key].times.tobytes())
        digest.update(trace.source_rates[key].values.tobytes())
    for counts in (trace.deliveries, trace.losses):
        digest.update(np.array(sorted(counts.items()), dtype=np.int64)
                      .tobytes())
    return digest.hexdigest()


class TestSeedStackTracePins:
    """Event counts and trace digests of the seed simulator stack.

    Recorded from an inline copy of the seed DES stack (commit ``c0f79ee``:
    event queue, rate and window sources, bottleneck queue, feedback
    channels), which matched the production simulator bit for bit on each
    configuration.  The production simulator must keep reproducing them.
    """

    @pytest.mark.parametrize("config, duration, events, digest", [
        pytest.param(
            packet_level_jrj_scenario(n_sources=1, service_rate=10.0, seed=3),
            60.0, 1601,
            "2c9885513d68920a95e23bcdcc0532923cb9b8aa30338cc5ff041160bd52e000",
            id="jrj-1"),
        pytest.param(
            packet_level_jrj_scenario(n_sources=2, service_rate=10.0, seed=7),
            60.0, 2121,
            "fa904a0785da70b6e3a85c8e7c88a4cca74c89c25451aa8efaa02c3c72215c07",
            id="jrj-2"),
        pytest.param(
            packet_level_window_scenario(n_sources=2, service_rate=10.0,
                                         buffer_size=20, scheme="jacobson"),
            60.0, 1276,
            "7b5f9ee3b29c55ffbb9d0fa019f8ea79ffc6c2bd7164eb7b5e2c36d118a76f14",
            id="jacobson-2"),
        pytest.param(
            packet_level_window_scenario(n_sources=2, service_rate=10.0,
                                         buffer_size=40, scheme="decbit"),
            60.0, 1486,
            "371d70d12b7c71fb7d771168969702db7f2e0eef3fe2cc2d1d58d7b5f6b823fe",
            id="decbit-2"),
        pytest.param(
            dumbbell_scenario(n_sources=64, seed=11),
            40.0, 42706,
            "1220e4467074fa0a679e5495a72c12c2eb3ef9c564fc5d352f599b1fe8927cd4",
            id="dumbbell-64"),
    ])
    def test_trace_matches_seed_stack(self, config, duration, events, digest):
        result = Simulator(config).run(duration)
        assert result.events_executed == events
        assert _trace_digest(result.trace) == digest
