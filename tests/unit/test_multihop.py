"""Unit tests for the multi-hop topology and simulator."""

import pytest

from repro.exceptions import ConfigurationError
from repro.queueing import (
    MultiHopConfig,
    MultiHopSimulator,
    NodeConfig,
    Route,
    parking_lot_scenario,
)


class TestTopologyDescriptions:
    def test_route_properties(self):
        route = Route(source_name="long", hops=["a", "b", "c"], hop_delay=0.2)
        assert route.hop_count == 3
        assert route.round_trip_propagation == pytest.approx(1.2)

    def test_route_validation(self):
        with pytest.raises(ConfigurationError):
            Route(source_name="empty", hops=[])
        with pytest.raises(ConfigurationError):
            Route(source_name="bad", hops=["a"], hop_delay=-0.1)
        with pytest.raises(ConfigurationError):
            Route(source_name="bad", hops=["a"], window_scheme="unknown")

    def test_node_validation(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(name="", service_rate=1.0)
        with pytest.raises(ConfigurationError):
            NodeConfig(name="n", service_rate=0.0)

    def test_config_validates_route_references(self):
        nodes = [NodeConfig(name="a", service_rate=1.0)]
        with pytest.raises(ConfigurationError):
            MultiHopConfig(nodes=nodes,
                           routes=[Route(source_name="r", hops=["missing"])])

    def test_config_rejects_duplicate_names(self):
        nodes = [NodeConfig(name="a", service_rate=1.0),
                 NodeConfig(name="a", service_rate=2.0)]
        with pytest.raises(ConfigurationError):
            MultiHopConfig(nodes=nodes,
                           routes=[Route(source_name="r", hops=["a"])])

    def test_parking_lot_builder(self):
        config = parking_lot_scenario(n_extra_hops=3)
        assert len(config.nodes) == 4
        assert len(config.routes) == 2
        hop_counts = sorted(route.hop_count for route in config.routes)
        assert hop_counts == [1, 4]

    def test_parking_lot_requires_extra_hop(self):
        with pytest.raises(ConfigurationError):
            parking_lot_scenario(n_extra_hops=0)


class TestMultiHopSimulator:
    def test_single_route_delivers_packets(self):
        nodes = [NodeConfig(name="a", service_rate=10.0, buffer_size=20),
                 NodeConfig(name="b", service_rate=10.0, buffer_size=20)]
        routes = [Route(source_name="only", hops=["a", "b"], hop_delay=0.1)]
        config = MultiHopConfig(nodes=nodes, routes=routes, seed=1)
        result = MultiHopSimulator(config).run(duration=100.0)
        assert result.throughputs["only"] > 1.0
        assert result.hop_counts["only"] == 2
        assert set(result.node_mean_queue) == {"a", "b"}

    def test_more_hops_means_less_throughput(self):
        config = parking_lot_scenario(n_extra_hops=2, service_rate=10.0,
                                      buffer_size=15, hop_delay=0.3)
        result = MultiHopSimulator(config).run(duration=300.0)
        rows = result.throughput_by_hop_count()
        short_throughput = rows[0][2]
        long_throughput = rows[-1][2]
        assert long_throughput < short_throughput
        assert result.long_to_short_ratio() < 0.7
        assert result.fairness_index() < 0.95

    def test_unfairness_grows_with_hop_count(self):
        ratios = []
        for extra_hops in (1, 4):
            config = parking_lot_scenario(n_extra_hops=extra_hops,
                                          service_rate=10.0, buffer_size=15,
                                          hop_delay=0.3)
            result = MultiHopSimulator(config).run(duration=300.0)
            ratios.append(result.long_to_short_ratio())
        assert ratios[1] < ratios[0]

    def test_losses_are_counted(self):
        config = parking_lot_scenario(n_extra_hops=1, service_rate=10.0,
                                      buffer_size=10, hop_delay=0.2)
        result = MultiHopSimulator(config).run(duration=200.0)
        assert sum(result.losses.values()) > 0

    def test_invalid_duration_rejected(self):
        config = parking_lot_scenario()
        with pytest.raises(ConfigurationError):
            MultiHopSimulator(config).run(duration=-1.0)

    def test_decbit_scheme_supported(self):
        config = parking_lot_scenario(n_extra_hops=1, scheme="decbit")
        result = MultiHopSimulator(config).run(duration=100.0)
        assert sum(result.throughputs.values()) > 1.0
