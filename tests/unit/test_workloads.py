"""Unit tests for the scenario builders and the grid runner."""

from types import MappingProxyType

import pytest

from repro import JRJControl, SystemParameters
from repro.exceptions import ConfigurationError
from repro.workloads import (
    GridSweep,
    heterogeneous_delay_scenario,
    heterogeneous_parameters_scenario,
    homogeneous_sources_scenario,
    packet_level_jrj_scenario,
    packet_level_window_scenario,
    run_grid,
    single_source_scenario,
)


def weighted_sum(**kwargs):
    """Module-level grid callable (usable by the multi-process path)."""
    return sum(index * value
               for index, value in enumerate(sorted(kwargs.values()), start=1))


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

    def test_heterogeneous_delay_scenario(self):
        _, sources = heterogeneous_delay_scenario(delays=(0.5, 4.0))
        assert sources[0].delay == 0.5
        assert sources[1].delay == 4.0
        assert sources[0].c0 == sources[1].c0

    def test_packet_level_jrj_scenario_shapes(self):
        config = packet_level_jrj_scenario(n_sources=3, service_rate=20.0)
        assert config.n_sources == 3
        assert config.service_rate == 20.0
        assert all(source.kind == "rate" for source in config.sources)

    def test_packet_level_jrj_delay_length_mismatch(self):
        with pytest.raises(ValueError):
            packet_level_jrj_scenario(n_sources=2, feedback_delays=[1.0])

    def test_packet_level_window_scenario_marking_only_for_decbit(self):
        tcp = packet_level_window_scenario(scheme="jacobson")
        decbit = packet_level_window_scenario(scheme="decbit")
        assert tcp.marking_threshold is None
        assert decbit.marking_threshold is not None

    def test_packet_level_window_delay_length_mismatch(self):
        with pytest.raises(ValueError):
            packet_level_window_scenario(n_sources=2, round_trip_delays=[0.5])


class TestSweepRunner:
    """A one-parameter sweep is a one-axis grid."""

    def test_sweep_collects_results_in_order(self):
        sweep = run_grid({"x": [1.0, 2.0, 3.0]}, evaluate=lambda x: x ** 2)
        assert sweep.points == [{"x": 1.0}, {"x": 2.0}, {"x": 3.0}]
        assert sweep.results == [1.0, 4.0, 9.0]
        assert len(sweep) == 3

    def test_sweep_rows_extraction(self):
        sweep = run_grid({"delay": [0.0, 1.0]},
                         evaluate=lambda delay: {"amp": 2 * delay})
        rows = sweep.rows(lambda result: {"amplitude": result["amp"]})
        assert rows == [{"delay": 0.0, "amplitude": 0.0},
                        {"delay": 1.0, "amplitude": 2.0}]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            run_grid({"x": []}, evaluate=lambda x: x)

    def test_missing_evaluate_rejected(self):
        with pytest.raises(ConfigurationError):
            run_grid({"x": [1.0]}, None)


class TestGridRunner:
    def test_grid_cartesian_row_major(self):
        sweep = run_grid({"a": [1.0, 2.0], "b": [10.0, 20.0]},
                         evaluate=lambda a, b: a + b)
        assert isinstance(sweep, GridSweep)
        assert len(sweep) == 4
        assert sweep.points == [{"a": 1.0, "b": 10.0}, {"a": 1.0, "b": 20.0},
                                {"a": 2.0, "b": 10.0}, {"a": 2.0, "b": 20.0}]
        assert sweep.results == [11.0, 21.0, 12.0, 22.0]
        assert sweep.parameter_names == ["a", "b"]

    def test_grid_rows_include_all_coordinates(self):
        sweep = run_grid({"a": [1.0], "b": [2.0, 3.0]},
                         evaluate=lambda a, b: {"product": a * b})
        rows = sweep.rows(lambda result: {"prod": result["product"]})
        assert rows == [{"a": 1.0, "b": 2.0, "prod": 2.0},
                        {"a": 1.0, "b": 3.0, "prod": 3.0}]

    def test_run_grid_accepts_grid_mapping(self):
        sweep = run_grid(MappingProxyType({"a": [1.0, 2.0]}),
                         evaluate=lambda a: 3 * a)
        assert isinstance(sweep, GridSweep)
        assert sweep.results == [3.0, 6.0]

    def test_grid_form_rejects_separate_values(self):
        # The legacy (name, values, evaluate) call shape puts the value
        # list where the callable belongs.
        with pytest.raises(ConfigurationError):
            run_grid({"a": [1.0]}, [1.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            run_grid({}, evaluate=lambda: 0.0)

    def test_grid_parallel_matches_serial(self):
        axes = {"a": [1.0, 2.0, 3.0], "b": [5.0, 7.0]}
        serial = run_grid(axes, weighted_sum)
        parallel = run_grid(axes, weighted_sum, n_jobs=2)
        assert parallel.results == serial.results
        assert parallel.points == serial.points

    def test_grid_with_cache_reuses_results(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path)
        axes = {"a": [1.0, 2.0], "b": [4.0]}
        first = run_grid(axes, weighted_sum, cache=cache)
        second = run_grid(axes, weighted_sum, cache=cache)
        assert second.results == first.results
        assert len(cache) == 2
