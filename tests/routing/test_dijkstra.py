"""Tests for repro.routing.dijkstra, cross-validated against networkx."""

import random

import networkx as nx
import pytest

from repro.errors import NoPathError
from repro.geometry import Point
from repro.routing import (
    reverse_shortest_path_tree,
    shortest_path,
    shortest_path_or_none,
    shortest_path_tree,
)
from repro.topology import Link, Topology, geometric_isp


def to_networkx(topo: Topology) -> nx.DiGraph:
    g = nx.DiGraph()
    for link in topo.links():
        g.add_edge(link.u, link.v, weight=topo.cost(link.u, link.v))
        g.add_edge(link.v, link.u, weight=topo.cost(link.v, link.u))
    return g


class TestShortestPath:
    def test_line(self, tiny_line):
        path = shortest_path(tiny_line, 0, 2)
        assert list(path.nodes) == [0, 1, 2]
        assert path.cost == 2.0

    def test_source_equals_destination(self, tiny_line):
        path = shortest_path(tiny_line, 1, 1)
        assert len(path.nodes) == 1
        assert path.cost == 0.0

    def test_source_equals_destination_excluded_raises(self, tiny_line):
        # Regression: the zero-hop case used to bypass the exclusion
        # contract and return a Path even for an excluded source.
        with pytest.raises(NoPathError):
            shortest_path(tiny_line, 1, 1, excluded_nodes={1})
        assert shortest_path_or_none(tiny_line, 1, 1, excluded_nodes={1}) is None
        # A non-excluded source keeps the zero-hop path.
        assert len(shortest_path(tiny_line, 1, 1, excluded_nodes={0}).nodes) == 1

    def test_no_path_raises(self, tiny_line):
        tiny_line.remove_link(0, 1)
        with pytest.raises(NoPathError):
            shortest_path(tiny_line, 0, 2)

    def test_or_none(self, tiny_line):
        tiny_line.remove_link(0, 1)
        assert shortest_path_or_none(tiny_line, 0, 2) is None

    def test_excluded_link_forces_detour(self, ring8):
        direct = shortest_path(ring8, 0, 1)
        assert len(direct.nodes) == 2
        detour = shortest_path(ring8, 0, 1, excluded_links={Link.of(0, 1)})
        assert len(detour.nodes) == 8

    def test_excluded_node_forces_detour(self, ring8):
        detour = shortest_path(ring8, 0, 2, excluded_nodes={1})
        assert len(detour.nodes) == 7

    def test_deterministic_tie_break(self, grid5):
        # Many equal-cost paths exist in a grid; repeated runs must agree.
        p1 = shortest_path(grid5, 0, 24)
        p2 = shortest_path(grid5, 0, 24)
        assert p1 == p2

    def test_asymmetric_costs(self):
        topo = Topology()
        for i, xy in enumerate([(0, 0), (10, 0), (10, 10), (0, 10)]):
            topo.add_node(i, Point(*xy))
        topo.add_link(0, 1, cost=1, reverse_cost=10)
        topo.add_link(1, 2, cost=1, reverse_cost=10)
        topo.add_link(0, 3, cost=5, reverse_cost=1)
        topo.add_link(3, 2, cost=5, reverse_cost=1)
        assert shortest_path(topo, 0, 2).cost == 2  # via 1
        assert shortest_path(topo, 2, 0).cost == 2  # via 3


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(4))
    def test_all_pairs_distances_match(self, seed):
        topo = geometric_isp(25, 50, random.Random(seed))
        g = to_networkx(topo)
        nx_dist = dict(nx.all_pairs_dijkstra_path_length(g))
        for src in topo.nodes():
            tree = shortest_path_tree(topo, src)
            for dst in topo.nodes():
                assert tree.cost_to(dst) == pytest.approx(nx_dist[src][dst])

    def test_asymmetric_random_costs_match(self):
        rng = random.Random(11)
        topo = geometric_isp(20, 45, rng)
        mutated = Topology("asym")
        for node in topo.nodes():
            mutated.add_node(node, topo.position(node))
        for link in topo.links():
            mutated.add_link(
                link.u,
                link.v,
                cost=rng.uniform(1, 10),
                reverse_cost=rng.uniform(1, 10),
            )
        g = to_networkx(mutated)
        for src in [0, 5, 10]:
            tree = shortest_path_tree(mutated, src)
            lengths = nx.single_source_dijkstra_path_length(g, src)
            for dst, d in lengths.items():
                assert tree.cost_to(dst) == pytest.approx(d)


class TestForwardTree:
    def test_distances_and_paths(self, grid5):
        tree = shortest_path_tree(grid5, 0)
        assert tree.cost_to(24) == 8
        path = tree.path_from(24)
        assert path.source == 0 and path.destination == 24
        assert len(path.nodes) == 9

    def test_unreachable_raises(self, tiny_line):
        tiny_line.remove_link(1, 2)
        tree = shortest_path_tree(tiny_line, 0)
        assert not tree.reaches(2)
        with pytest.raises(NoPathError):
            tree.path_from(2)


class TestReverseTree:
    def test_next_hops_reach_destination(self, grid5):
        tree = reverse_shortest_path_tree(grid5, 24)
        node = 0
        hops = 0
        while node != 24:
            node = tree.next_hop(node)
            hops += 1
            assert hops <= 50
        assert hops == 8

    def test_reverse_distance_uses_directed_costs(self):
        topo = Topology()
        topo.add_node(0, Point(0, 0))
        topo.add_node(1, Point(1, 0))
        topo.add_link(0, 1, cost=3, reverse_cost=7)
        tree = reverse_shortest_path_tree(topo, 1)
        # Distance of node 0 toward root 1 must use cost(0 -> 1) = 3.
        assert tree.cost_to(0) == 3

    def test_path_from_matches_forward(self, grid5):
        forward = shortest_path_tree(grid5, 7)
        reverse = reverse_shortest_path_tree(grid5, 7)
        for node in grid5.nodes():
            assert forward.cost_to(node) == reverse.cost_to(node)
            assert reverse.path_from(node).destination == 7

    def test_hop_by_hop_consistency(self, grid5):
        # Following next hops from any node must yield that node's own
        # shortest path — the loop-freedom property routing tables rely on.
        tree = reverse_shortest_path_tree(grid5, 12)
        for start in grid5.nodes():
            walked = [start]
            node = start
            while node != 12:
                node = tree.next_hop(node)
                walked.append(node)
            assert len(walked) - 1 == tree.cost_to(start)
