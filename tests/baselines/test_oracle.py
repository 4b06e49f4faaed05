"""Tests for repro.schemes.oracle."""

from repro.schemes.oracle import Oracle
from repro.failures import FailureScenario
from repro.topology import Link


class TestOracle:
    def test_path_avoids_all_failures(self, paper_topo, paper_scenario):
        oracle = Oracle(paper_topo, paper_scenario)
        path = oracle.recovery_path(6, 17)
        assert path is not None
        for a, b in path.hops():
            assert paper_scenario.is_link_live(Link.of(a, b))
        for node in path.nodes:
            assert paper_scenario.is_node_live(node)

    def test_paper_example_optimal_cost(self, paper_topo, paper_scenario):
        oracle = Oracle(paper_topo, paper_scenario)
        assert oracle.optimal_cost(6, 17) == 4

    def test_failed_destination_irrecoverable(self, paper_topo, paper_scenario):
        oracle = Oracle(paper_topo, paper_scenario)
        assert not oracle.is_recoverable(6, 10)
        assert oracle.optimal_cost(6, 10) is None

    def test_partitioned_destination_irrecoverable(self, tiny_line):
        scenario = FailureScenario(tiny_line, failed_links=[Link.of(1, 2)])
        oracle = Oracle(tiny_line, scenario)
        assert not oracle.is_recoverable(0, 2)
        assert oracle.is_recoverable(0, 1)

    def test_one_cache_probe_answers_every_destination(
        self, paper_topo, paper_scenario
    ):
        oracle = Oracle(paper_topo, paper_scenario)
        for destination in paper_topo.nodes():
            cost = oracle.optimal_cost(6, destination)
            path = oracle.recovery_path(6, destination)
            assert (path.cost if path is not None else None) == cost
            assert oracle.is_recoverable(6, destination) == (cost is not None)
            if path is not None:
                assert (path.source, path.destination) == (6, destination)
        assert oracle.cache.hits + oracle.cache.misses == 1
        assert oracle.tree_from(6).dist[17] == 4

    def test_failed_initiator_irrecoverable(self, paper_topo, paper_scenario):
        oracle = Oracle(paper_topo, paper_scenario)
        assert oracle.recovery_path(10, 17) is None
