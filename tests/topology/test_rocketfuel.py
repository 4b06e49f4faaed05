"""Tests for repro.topology.rocketfuel (data-file parsing and loading)."""

import random

import pytest

from repro.errors import TopologyError
from repro.topology import DEFAULT_AREA
from repro.topology.io import load_graph_file
from repro.topology.rocketfuel import (
    parse_cch,
    parse_edge_list,
    topology_from_edges,
)

EDGE_FILE = """
# a comment
a b 2.0
b c        # trailing comment
c d 1.5
a c
x y 3.0
"""

CCH_SNIPPET = """
1 @home,+bb (3) -> <2> <3> {-99} =R1 r0
2 @home,bb (2) -> <1> <3> =R2 r1
3 @home (2) -> <1> <2> =R3 r1
-99 external stuff
not-a-record line
"""


class TestParseEdgeList:
    def test_basic(self):
        edges = parse_edge_list(EDGE_FILE.splitlines())
        assert ("a", "b", 2.0) in edges
        assert ("b", "c", 1.0) in edges  # default weight
        assert len(edges) == 5

    def test_bad_line_rejected(self):
        with pytest.raises(TopologyError):
            parse_edge_list(["justonenode"])

    def test_bad_weight_rejected(self):
        with pytest.raises(TopologyError):
            parse_edge_list(["a b heavy"])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(TopologyError):
            parse_edge_list(["a b 0"])


class TestParseCch:
    def test_extracts_internal_links(self):
        edges = parse_cch(CCH_SNIPPET.splitlines())
        pairs = {(a, b) for a, b, _w in edges}
        assert ("1", "2") in pairs
        assert ("1", "3") in pairs
        # external {-99} link ignored
        assert not any("99" in p for pair in pairs for p in pair)

    def test_ignores_non_records(self):
        edges = parse_cch(["# comment", "", "hello world"])
        assert edges == []


class TestTopologyFromEdges:
    def test_dense_ids_and_embedding(self):
        edges = parse_edge_list(["a b", "b c", "c a"])
        topo = topology_from_edges(edges, random.Random(1))
        assert topo.node_count == 3
        assert topo.link_count == 3
        for node in topo.nodes():
            pos = topo.position(node)
            assert 0 <= pos.x <= DEFAULT_AREA and 0 <= pos.y <= DEFAULT_AREA

    def test_duplicates_and_self_loops_dropped(self):
        edges = parse_edge_list(["a b 2", "b a 9", "a a"])
        topo = topology_from_edges(edges, random.Random(1))
        assert topo.link_count == 1
        assert topo.cost(0, 1) == 2.0  # first weight wins

    def test_largest_component_selected(self):
        edges = parse_edge_list(["a b", "b c", "x y"])
        topo = topology_from_edges(edges, random.Random(1))
        assert topo.node_count == 3
        assert topo.is_connected()

    def test_keep_all_components(self):
        edges = parse_edge_list(["a b", "x y"])
        topo = topology_from_edges(
            edges, random.Random(1), largest_component_only=False
        )
        assert topo.node_count == 4
        assert not topo.is_connected()

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            topology_from_edges([])


class TestLoadRocketfuel:
    """Rocketfuel files through the ``file:`` loader, format sniffed by suffix."""

    def test_edge_file(self, tmp_path):
        path = tmp_path / "weights.intra"
        path.write_text(EDGE_FILE)
        topo = load_graph_file(path, seed=2)
        assert topo.is_connected()
        assert topo.node_count == 4  # a b c d (x-y is the minor component)

    def test_cch_file(self, tmp_path):
        path = tmp_path / "as1.cch"
        path.write_text(CCH_SNIPPET)
        topo = load_graph_file(path, seed=3)
        assert topo.node_count == 3
        assert topo.link_count == 3

    def test_loaded_topology_runs_rtr(self, tmp_path):
        # End-to-end: a loaded file is a first-class topology.
        path = tmp_path / "mini.intra"
        path.write_text(
            "\n".join(
                f"n{i} n{j}" for i, j in
                [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (3, 4), (4, 5), (5, 2)]
            )
        )
        topo = load_graph_file(path, seed=4)
        from repro import RTR, FailureScenario

        link = next(iter(topo.links()))
        scenario = FailureScenario(topo, failed_links=[link])
        rtr = RTR(topo, scenario)
        # Recover the flow crossing the failed link, if routing used it.
        from repro.failures import LocalView

        view = LocalView(scenario)
        for initiator in topo.nodes():
            bad = set(view.unreachable_neighbors(initiator))
            for destination in topo.nodes():
                if destination == initiator:
                    continue
                nh = rtr.routing.next_hop(initiator, destination)
                if nh in bad:
                    result = rtr.recover(initiator, destination, nh)
                    assert result.delivered  # Theorem 3 on a loaded file
                    return
        pytest.skip("failed link was on no shortest path")
