"""Tests for repro.eval.cases.count_failed_routing_paths (Fig. 11's unit).

The memoized counter must agree with the obvious brute force: walk every
(source, destination) pair's default path and classify it.
"""

import random

import pytest

from repro.eval import count_failed_routing_paths
from repro.failures import FailureScenario, LocalView, random_circle
from repro.routing import RoutingTable
from repro.topology import Link, geometric_isp


def brute_force(topo, routing, scenario):
    view = LocalView(scenario)
    recoverable = irrecoverable = 0
    for src in scenario.live_nodes():
        for dst in topo.nodes():
            if src == dst:
                continue
            path = routing.path(src, dst)
            if path is None:
                continue
            failed = not scenario.is_node_live(dst)
            if not failed:
                for a, b in path.hops():
                    if not scenario.is_node_live(a) or not scenario.is_node_live(b):
                        failed = True
                        break
                    if not scenario.is_link_live(Link.of(a, b)):
                        failed = True
                        break
            if not failed:
                continue
            if scenario.reachable(src, dst):
                recoverable += 1
            else:
                irrecoverable += 1
    return recoverable, irrecoverable


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_scenarios(self, seed):
        rng = random.Random(seed)
        topo = geometric_isp(25, 50, rng)
        routing = RoutingTable(topo)
        scenario = FailureScenario.from_region(topo, random_circle(rng))
        assert count_failed_routing_paths(topo, routing, scenario) == brute_force(
            topo, routing, scenario
        )

    def test_paper_example(self, paper_topo, paper_scenario):
        routing = RoutingTable(paper_topo)
        assert count_failed_routing_paths(
            paper_topo, routing, paper_scenario
        ) == brute_force(paper_topo, routing, paper_scenario)


class TestEdgeCases:
    def test_no_failures(self, grid5):
        scenario = FailureScenario(grid5)
        routing = RoutingTable(grid5)
        assert count_failed_routing_paths(grid5, routing, scenario) == (0, 0)

    def test_partition_all_irrecoverable(self, tiny_line):
        scenario = FailureScenario(tiny_line, failed_links=[Link.of(1, 2)])
        routing = RoutingTable(tiny_line)
        rec, irr = count_failed_routing_paths(tiny_line, routing, scenario)
        # Failed paths: 0->2, 1->2, 2->0, 2->1 — all cross the cut.
        assert rec == 0
        assert irr == 4

    def test_failed_destination_counts_per_live_source(self, ring8):
        scenario = FailureScenario(ring8, failed_nodes=[3])
        routing = RoutingTable(ring8)
        rec, irr = count_failed_routing_paths(ring8, routing, scenario)
        # Toward the dead node: 7 live sources, all irrecoverable.
        assert irr == 7
        # Paths through node 3 between live nodes reroute the long way:
        # recoverable.
        assert rec > 0
