"""Tests for repro.schemes.mrc (Multiple Routing Configurations)."""

import random

import pytest

from repro.schemes.mrc import MRC, generate_configurations, unprotected_nodes
from repro.schemes.oracle import Oracle
from repro.failures import FailureScenario, random_circle
from repro.topology import Link, geometric_isp, isp_catalog

from ..conftest import ring_topology, star_topology


@pytest.fixture(scope="module")
def biconnected():
    # A ring is biconnected: every node can be isolated.
    return ring_topology(10)


@pytest.fixture(scope="module")
def ring_configs(biconnected):
    return generate_configurations(biconnected, seed=0)


class TestConfigurationGeneration:
    def test_full_coverage_on_biconnected(self, biconnected, ring_configs):
        assert unprotected_nodes(biconnected, ring_configs) == set()

    def test_each_node_isolated_somewhere(self, biconnected, ring_configs):
        covered = set()
        for config in ring_configs:
            covered |= config.isolated_nodes
        assert covered == set(biconnected.nodes())

    def test_isolated_nodes_keep_restricted_attachment(
        self, biconnected, ring_configs
    ):
        for config in ring_configs:
            for node in config.isolated_nodes:
                attached = [
                    link
                    for link in biconnected.incident_links(node)
                    if link in config.restricted_links
                ]
                assert attached, f"isolated node {node} has no restricted link"

    def test_backbone_connected_per_config(self, biconnected, ring_configs):
        for config in ring_configs:
            backbone = [
                n for n in biconnected.nodes() if n not in config.isolated_nodes
            ]
            seen = {backbone[0]}
            stack = [backbone[0]]
            while stack:
                u = stack.pop()
                for v in biconnected.neighbors(u):
                    if v in config.isolated_nodes or v in seen:
                        continue
                    if Link.of(u, v) in config.isolated_links:
                        continue
                    seen.add(v)
                    stack.append(v)
            assert seen == set(backbone)

    def test_leaves_cannot_be_isolated(self):
        # Articulation points / leaves are unprotectable (DESIGN.md §4).
        topo = star_topology(5)
        configs = generate_configurations(topo, seed=0)
        assert 0 in unprotected_nodes(topo, configs)  # the hub

    def test_catalog_topology_mostly_covered(self):
        topo = isp_catalog.build("AS3549", seed=0)  # dense, mostly biconnected
        configs = generate_configurations(topo, seed=0)
        uncovered = unprotected_nodes(topo, configs)
        assert len(uncovered) <= topo.node_count * 0.25


class TestLinkWeights:
    def test_isolated_links_unusable(self, biconnected, ring_configs):
        config = ring_configs[0]
        for link in config.isolated_links:
            assert config.link_weight(link) is None

    def test_restricted_links_expensive(self, biconnected, ring_configs):
        config = ring_configs[0]
        for link in config.restricted_links:
            if link in config.isolated_links:
                continue
            assert config.link_weight(link) >= 100_000

    def test_normal_links_keep_cost(self, biconnected, ring_configs):
        config = ring_configs[0]
        for link in biconnected.links():
            if link in config.isolated_links or link in config.restricted_links:
                continue
            assert config.link_weight(link) == 1.0


class TestForwarding:
    def test_single_node_failure_recovered(self, biconnected, ring_configs):
        # MRC's design case: one failed node, the rest intact.
        scenario = FailureScenario(biconnected, failed_nodes=[3])
        mrc = MRC(biconnected, scenario, configurations=ring_configs)
        result = mrc.recover(2, 5, 3)
        assert result.delivered

    def test_single_link_failure_recovered(self, biconnected, ring_configs):
        scenario = FailureScenario(biconnected, failed_links=[Link.of(2, 3)])
        mrc = MRC(biconnected, scenario, configurations=ring_configs)
        result = mrc.recover(2, 3, 3)
        assert result.delivered

    def test_zero_sp_computations(self, biconnected, ring_configs):
        # MRC is proactive: no on-demand shortest-path calculations.
        scenario = FailureScenario(biconnected, failed_nodes=[3])
        mrc = MRC(biconnected, scenario, configurations=ring_configs)
        result = mrc.recover(2, 5, 3)
        assert result.sp_computations == 0

    def test_large_area_often_fails(self):
        # §I: a path and its backup may fail together under area failures.
        rng = random.Random(1)
        topo = isp_catalog.build("AS1239", seed=0)
        configs = generate_configurations(topo, seed=0)
        from repro.failures import LocalView
        from repro.routing import RoutingTable

        routing = RoutingTable(topo)
        delivered = failed = 0
        for _ in range(15):
            scenario = FailureScenario.from_region(topo, random_circle(rng))
            if not scenario.failed_links:
                continue
            mrc = MRC(topo, scenario, configurations=configs, routing=routing)
            oracle = Oracle(topo, scenario)
            view = LocalView(scenario)
            for initiator in sorted(scenario.live_nodes()):
                bad = set(view.unreachable_neighbors(initiator))
                for destination in sorted(scenario.live_nodes()):
                    nh = routing.next_hop(initiator, destination)
                    if nh not in bad:
                        continue
                    if not oracle.is_recoverable(initiator, destination):
                        continue
                    result = mrc.recover(initiator, destination, nh)
                    if result.delivered:
                        delivered += 1
                    else:
                        failed += 1
        assert failed > 0, "MRC should fail on some recoverable area cases"
        assert delivered > 0, "MRC should still recover some cases"

    def test_delivered_paths_are_live(self, biconnected, ring_configs):
        scenario = FailureScenario(biconnected, failed_nodes=[3])
        mrc = MRC(biconnected, scenario, configurations=ring_configs)
        result = mrc.recover(2, 7, 3)
        if result.delivered:
            for a, b in result.path.hops():
                assert scenario.is_link_live(Link.of(a, b))
