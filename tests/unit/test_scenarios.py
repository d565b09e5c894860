"""Unit tests for the scenario registry and its builders."""

import pytest

from repro.exceptions import ConfigurationError
from repro.queueing import (
    MultiHopConfig,
    MultiHopSimulator,
    NetworkConfig,
    Simulator,
    chain_scenario,
    dumbbell_scenario,
    get_scenario,
    random_mesh_scenario,
    register_scenario,
)
from repro.queueing.scenarios import _SCENARIOS


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        for expected in ("chain", "dumbbell", "mesh", "parking-lot"):
            assert get_scenario(expected).name == expected

    def test_get_scenario_kinds(self):
        assert get_scenario("dumbbell").kind == "single"
        assert get_scenario("mesh").kind == "multihop"

    @pytest.mark.parametrize("name", ["chain", "dumbbell", "mesh",
                                      "parking-lot"])
    def test_builtin_builds_its_kind_the_same_from_one_seed(self, name):
        spec = get_scenario(name)
        config = spec.build(seed=11)
        expected = NetworkConfig if spec.kind == "single" else MultiHopConfig
        assert type(config) is expected
        assert config == spec.build(seed=11)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scenario("tokamak")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_scenario("dumbbell", "single", "dup", dumbbell_scenario)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            register_scenario("weird", "quantum", "bad kind", dumbbell_scenario)

    def test_registration_round_trip(self):
        def build(**kwargs):
            return dumbbell_scenario(n_sources=2, **kwargs)

        spec = register_scenario("tiny-dumbbell", "single", "two sources", build)
        try:
            assert get_scenario("tiny-dumbbell") is spec
            assert get_scenario("tiny-dumbbell").build(seed=5).n_sources == 2
        finally:
            del _SCENARIOS["tiny-dumbbell"]


class TestDumbbell:
    def test_capacity_and_gain_scale_with_population(self):
        config = dumbbell_scenario(n_sources=64, per_source_rate=5.0)
        assert isinstance(config, NetworkConfig)
        assert config.n_sources == 64
        assert config.service_rate == pytest.approx(320.0)
        # Aggregate linear-increase gain is held at the canonical 0.05*mu.
        total_gain = sum(
            source.control_kwargs["c0"] for source in config.sources
        )
        assert total_gain == pytest.approx(0.05 * config.service_rate)
        # Initial rates fill half the capacity.
        total_initial = sum(source.initial_rate for source in config.sources)
        assert total_initial == pytest.approx(0.5 * config.service_rate)

    def test_invalid_population_rejected(self):
        with pytest.raises(ConfigurationError):
            dumbbell_scenario(n_sources=0)
        with pytest.raises(ConfigurationError):
            dumbbell_scenario(per_source_rate=0.0)

    def test_runs_and_stays_fair(self):
        config = dumbbell_scenario(n_sources=8, seed=3)
        result = Simulator(config).run(duration=120.0)
        assert result.fairness_index() > 0.95
        assert 0.5 < result.utilization() <= 1.05


class TestChain:
    def test_topology_shape(self):
        config = chain_scenario(n_hops=4)
        assert isinstance(config, MultiHopConfig)
        assert len(config.nodes) == 4
        # One end-to-end route plus one cross flow per hop.
        assert len(config.routes) == 5
        end_to_end = config.routes[0]
        assert end_to_end.hop_count == 4
        hops = [hop for route in config.routes for hop in route.hops]
        shared = {name for name in hops if hops.count(name) > 1}
        assert shared == {node.name for node in config.nodes}

    def test_without_cross_traffic(self):
        config = chain_scenario(n_hops=3, cross_traffic=False)
        assert len(config.routes) == 1

    def test_invalid_hops_rejected(self):
        with pytest.raises(ConfigurationError):
            chain_scenario(n_hops=0)

    def test_end_to_end_flow_is_disadvantaged(self):
        result = MultiHopSimulator(chain_scenario(n_hops=3, seed=2)).run(200.0)
        rows = result.throughput_by_hop_count()
        # Longest route last; it should not out-carry the short cross flows.
        assert rows[-1][0] == 3
        assert result.long_to_short_ratio() < 1.0


class TestMesh:
    def test_deterministic_in_seed(self):
        first = random_mesh_scenario(n_nodes=6, n_routes=8, seed=4)
        second = random_mesh_scenario(n_nodes=6, n_routes=8, seed=4)
        other = random_mesh_scenario(n_nodes=6, n_routes=8, seed=5)
        assert first.routes == second.routes
        assert first.routes != other.routes

    def test_routes_are_simple_paths(self):
        config = random_mesh_scenario(n_nodes=5, n_routes=10, max_hops=4)
        for route in config.routes:
            assert 1 <= route.hop_count <= 4
            assert len(set(route.hops)) == route.hop_count

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            random_mesh_scenario(n_nodes=0)
        with pytest.raises(ConfigurationError):
            random_mesh_scenario(n_routes=0)
        with pytest.raises(ConfigurationError):
            random_mesh_scenario(n_nodes=3, max_hops=5)

    def test_runs_end_to_end(self):
        config = random_mesh_scenario(n_nodes=6, n_routes=8, seed=4)
        result = MultiHopSimulator(config).run(duration=60.0)
        assert sum(result.throughputs.values()) > 0.0
        assert result.events_executed > 0
