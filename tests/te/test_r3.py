"""Tests for repro.schemes.r3 (offline protection planning, online splicing).

The conformance suite (tests/schemes) already runs ``r3`` through the
registry lifecycle/determinism/fault-wrapping contract; this module pins
the scheme-specific behavior: loop stripping, virtual-demand planning,
splice-only recovery (zero on-demand SP computations), and the honest
failure modes (bridge links, exhausted nesting budget).
"""

from __future__ import annotations

import pytest

from repro.routing import RoutingTable, SPTCache, dijkstra_run_count
from repro.schemes import create_scheme, scheme_names
from repro.schemes.r3 import DEFAULT_R3_K, R3Scheme, _strip_loops
from repro.topology import Link


def prepared(topo, **options):
    scheme = create_scheme("r3", **options)
    scheme.prepare(topo, RoutingTable(topo), SPTCache())
    return scheme


class TestStripLoops:
    def test_no_loop_is_identity(self):
        assert _strip_loops([0, 1, 2, 3]) == [0, 1, 2, 3]

    def test_simple_loop_unwinds(self):
        assert _strip_loops([0, 1, 2, 1, 3]) == [0, 1, 3]

    def test_nested_loops(self):
        assert _strip_loops([0, 1, 2, 3, 2, 1, 4]) == [0, 1, 4]

    def test_revisit_of_start(self):
        assert _strip_loops([0, 1, 0, 2]) == [0, 2]

    def test_single_node(self):
        assert _strip_loops([7]) == [7]


class TestRegistration:
    def test_registered(self):
        assert "r3" in scheme_names()

    def test_bad_nesting_budget_rejected(self):
        with pytest.raises(ValueError, match="r3_k"):
            R3Scheme(r3_k=0)

    def test_default_budget(self):
        assert R3Scheme().r3_k == DEFAULT_R3_K


class TestOfflinePlanning:
    def test_detour_per_protectable_link(self, grid5):
        scheme = prepared(grid5)
        # Every grid link sits on a cycle: all of them get a detour, and
        # each detour connects the link's endpoints without using it.
        assert set(scheme.detours) == set(grid5.links())
        for link, nodes in scheme.detours.items():
            assert {nodes[0], nodes[-1]} == {link.u, link.v}
            assert Link.of(nodes[0], nodes[1]) != link
            for a, b in zip(nodes, nodes[1:]):
                assert b in grid5.neighbors(a)

    def test_bridge_links_get_no_detour(self, tiny_line):
        scheme = prepared(tiny_line)
        assert scheme.detours == {}

    def test_planning_is_deterministic(self, grid5):
        a = prepared(grid5)
        b = prepared(grid5)
        assert a.detours == b.detours
        assert a.bypasses == b.bypasses

    def test_node_bypasses_avoid_the_node(self, grid5):
        scheme = prepared(grid5)
        assert scheme.bypasses, "grid interior nodes must be bypassable"
        for (b, a, c), nodes in scheme.bypasses.items():
            assert a < c
            assert {nodes[0], nodes[-1]} == {a, c}
            assert b not in nodes


class TestOnlineRecovery:
    def test_splice_only_recovery_charges_no_sp(
        self, paper_topo, paper_scenario
    ):
        scheme = prepared(paper_topo)
        instance = scheme.instantiate(paper_scenario)
        scheme.routing.path(6, 11)  # warm the pre-failure default route
        before = dijkstra_run_count()
        result = instance.protocol.recover(6, 11, 10)
        assert dijkstra_run_count() == before  # R3's no-reoptimization claim
        assert result.approach == "r3"
        if result.delivered:
            assert result.path is not None
            nodes = result.path.nodes
            assert nodes[0] == 6 and nodes[-1] == 11
            assert len(set(nodes)) == len(nodes)  # loops were stripped
            for a, b in result.path.hops():
                assert paper_scenario.is_link_live(Link.of(a, b))
                assert paper_scenario.is_node_live(b)

    def test_unprotected_failure_drops_at_initiator(self, tiny_line):
        from repro.failures import FailureScenario

        scheme = prepared(tiny_line)
        scenario = FailureScenario(tiny_line, failed_links={Link.of(1, 2)})
        result = scheme.instantiate(scenario).protocol.recover(1, 2, 2)
        assert not result.delivered
        assert result.path is None
        assert result.drop_hops == 0  # early discard: the packet never left
