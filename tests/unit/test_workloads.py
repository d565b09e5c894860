"""Unit tests for the scenario builders."""

import pytest

from repro import JRJControl, SystemParameters
from repro.workloads import (
    heterogeneous_parameters_scenario,
    homogeneous_sources_scenario,
    packet_level_jrj_scenario,
    packet_level_window_scenario,
    single_source_scenario,
)


class TestScenarioBuilders:
    def test_single_source_scenario_consistency(self):
        params, control = single_source_scenario(sigma=0.3)
        assert isinstance(params, SystemParameters)
        assert isinstance(control, JRJControl)
        assert control.c0 == params.c0
        assert control.q_target == params.q_target
        assert params.sigma == 0.3

    def test_homogeneous_sources_all_identical(self):
        params, sources = homogeneous_sources_scenario(n_sources=5)
        assert len(sources) == 5
        assert len({source.c0 for source in sources}) == 1
        assert len({source.c1 for source in sources}) == 1

    def test_heterogeneous_parameters_scale_c0(self):
        _, sources = heterogeneous_parameters_scenario(ratios=(1.0, 3.0))
        assert sources[1].c0 == pytest.approx(3.0 * sources[0].c0)

    def test_packet_level_jrj_scenario_shapes(self):
        config = packet_level_jrj_scenario(n_sources=3, service_rate=20.0)
        assert config.n_sources == 3
        assert config.service_rate == 20.0
        assert all(source.kind == "rate" for source in config.sources)

    def test_packet_level_jrj_feedback_is_undelayed_and_buffer_unbounded(
            self):
        config = packet_level_jrj_scenario(n_sources=2)
        assert config.buffer_size is None
        assert [source.feedback_delay for source in config.sources] == \
            [0.0, 0.0]

    def test_packet_level_window_scenario_marking_only_for_decbit(self):
        tcp = packet_level_window_scenario(scheme="jacobson")
        decbit = packet_level_window_scenario(scheme="decbit")
        assert tcp.marking_threshold is None
        assert decbit.marking_threshold is not None

    def test_packet_level_window_delay_length_mismatch(self):
        with pytest.raises(ValueError):
            packet_level_window_scenario(n_sources=2, round_trip_delays=[0.5])

