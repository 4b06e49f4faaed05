"""Tests for repro.topology.graph."""

import math

import pytest

from repro.errors import TopologyError, UnknownLinkError, UnknownNodeError
from repro.geometry import Point
from repro.topology import Link, Topology


@pytest.fixture
def triangle() -> Topology:
    topo = Topology("triangle")
    topo.add_node(0, Point(0, 0))
    topo.add_node(1, Point(100, 0))
    topo.add_node(2, Point(50, 80))
    topo.add_link(0, 1)
    topo.add_link(1, 2)
    topo.add_link(2, 0)
    return topo


class TestLink:
    def test_canonical_order(self):
        assert Link.of(4, 11) == Link.of(11, 4)
        assert Link.of(4, 11).u == 4

    def test_other_endpoint(self):
        link = Link.of(3, 7)
        assert link.other(3) == 7
        assert link.other(7) == 3

    def test_other_rejects_non_endpoint(self):
        with pytest.raises(TopologyError):
            Link.of(3, 7).other(5)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link.of(3, 3)

    def test_str(self):
        assert str(Link.of(11, 4)) == "e4,11"

    def test_hashable_and_equal(self):
        assert len({Link.of(1, 2), Link.of(2, 1)}) == 1


class TestTopologyConstruction:
    def test_counts(self, triangle):
        assert triangle.node_count == 3
        assert triangle.link_count == 3

    def test_add_link_unknown_node(self, triangle):
        with pytest.raises(UnknownNodeError):
            triangle.add_link(0, 99)

    def test_duplicate_link_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.add_link(1, 0)

    def test_non_positive_cost_rejected(self, triangle):
        triangle.add_node(3, Point(200, 200))
        with pytest.raises(TopologyError):
            triangle.add_link(0, 3, cost=0)

    @pytest.mark.parametrize(
        "cost, reverse_cost",
        [(math.nan, None), (math.inf, None), (1.0, math.nan), (1.0, math.inf)],
    )
    def test_non_finite_cost_rejected(self, triangle, cost, reverse_cost):
        triangle.add_node(3, Point(200, 200))
        with pytest.raises(TopologyError):
            triangle.add_link(0, 3, cost=cost, reverse_cost=reverse_cost)
        assert not triangle.has_link(0, 3)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_position_rejected(self, x, y):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_node(0, Point(x, y))
        assert not topo.has_node(0)

    def test_move_connected_node_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.add_node(0, Point(5, 5))

    def test_move_isolated_node_allowed(self):
        topo = Topology()
        topo.add_node(0, Point(0, 0))
        topo.add_node(0, Point(5, 5))
        assert topo.position(0) == Point(5, 5)


class TestCosts:
    def test_symmetric_default(self, triangle):
        assert triangle.cost(0, 1) == triangle.cost(1, 0) == 1.0

    def test_asymmetric_costs(self):
        topo = Topology()
        topo.add_node(0, Point(0, 0))
        topo.add_node(1, Point(1, 0))
        topo.add_link(0, 1, cost=2.0, reverse_cost=5.0)
        assert topo.cost(0, 1) == 2.0
        assert topo.cost(1, 0) == 5.0

    def test_cost_of_missing_link(self, triangle):
        triangle.add_node(3, Point(7, 7))
        with pytest.raises(UnknownLinkError):
            triangle.cost(0, 3)


class TestQueries:
    def test_neighbors(self, triangle):
        assert sorted(triangle.neighbors(0)) == [1, 2]

    def test_neighbors_unknown_node(self, triangle):
        with pytest.raises(UnknownNodeError):
            list(triangle.neighbors(42))

    def test_degree(self, triangle):
        assert triangle.degree(1) == 2

    def test_has_link(self, triangle):
        assert triangle.has_link(0, 1)
        assert triangle.has_link(1, 0)
        assert not triangle.has_link(0, 0)

    def test_position_unknown(self, triangle):
        with pytest.raises(UnknownNodeError):
            triangle.position(9)

    def test_incident_links(self, triangle):
        assert set(triangle.incident_links(2)) == {Link.of(1, 2), Link.of(0, 2)}

    def test_segment_and_length(self, triangle):
        assert triangle.euclidean_length(Link.of(0, 1)) == 100.0

    def test_links_in_insertion_order(self, triangle):
        assert list(triangle.links()) == [Link.of(0, 1), Link.of(1, 2), Link.of(0, 2)]


class TestLinkIndex:
    def test_roundtrip(self, triangle):
        for link in triangle.links():
            assert triangle.link_at(triangle.link_index(link)) == link

    def test_unknown_link(self, triangle):
        triangle.add_node(3, Point(7, 7))
        with pytest.raises(UnknownLinkError):
            triangle.link_index(Link.of(0, 3))

    def test_indices_stable_after_removal(self, triangle):
        idx2 = triangle.link_index(Link.of(0, 2))
        triangle.remove_link(1, 2)
        assert triangle.link_index(Link.of(0, 2)) == idx2
        with pytest.raises(UnknownLinkError):
            triangle.link_at(triangle.link_index(Link.of(0, 1)) + 1)


class TestRemoval:
    def test_remove_link(self, triangle):
        triangle.remove_link(0, 1)
        assert not triangle.has_link(0, 1)
        assert triangle.link_count == 2
        assert sorted(triangle.neighbors(0)) == [2]

    def test_remove_missing_link(self, triangle):
        triangle.remove_link(0, 1)
        with pytest.raises(UnknownLinkError):
            triangle.remove_link(0, 1)


class TestConnectivity:
    def test_connected(self, triangle):
        assert triangle.is_connected()

    def test_disconnected_after_removals(self, triangle):
        triangle.remove_link(0, 1)
        triangle.remove_link(0, 2)
        assert not triangle.is_connected()
        assert triangle.component_of(0) == {0}
        assert triangle.component_of(1) == {1, 2}

    def test_component_with_exclusions(self, triangle):
        assert triangle.component_of(0, excluded_nodes={1}) == {0, 2}
        assert triangle.component_of(
            0, excluded_links={Link.of(0, 1), Link.of(0, 2)}
        ) == {0}

    def test_component_of_excluded_start(self, triangle):
        assert triangle.component_of(0, excluded_nodes={0}) == set()

    def test_empty_topology_is_connected(self):
        assert Topology().is_connected()


class TestCopy:
    def test_copy_is_deep(self, triangle):
        clone = triangle.copy()
        clone.remove_link(0, 1)
        assert triangle.has_link(0, 1)
        assert not clone.has_link(0, 1)

    def test_copy_preserves_costs_and_positions(self):
        topo = Topology()
        topo.add_node(0, Point(1, 2))
        topo.add_node(1, Point(3, 4))
        topo.add_link(0, 1, cost=2.5, reverse_cost=7.5)
        clone = topo.copy()
        assert clone.position(0) == Point(1, 2)
        assert clone.cost(0, 1) == 2.5
        assert clone.cost(1, 0) == 7.5

    def test_copy_preserves_link_indices(self, triangle):
        clone = triangle.copy()
        for link in triangle.links():
            assert clone.link_index(link) == triangle.link_index(link)


class TestCrossLinksCache:
    def test_cross_links_of_paper_topology(self, paper_topo):
        assert paper_topo.cross_links(Link.of(5, 12)) == {Link.of(6, 11)}

    def test_cache_invalidated_on_removal(self, paper_topo):
        assert paper_topo.cross_links(Link.of(5, 12)) == {Link.of(6, 11)}
        paper_topo.remove_link(6, 11)
        assert paper_topo.cross_links(Link.of(5, 12)) == set()

    def test_unknown_link(self, paper_topo):
        with pytest.raises(UnknownLinkError):
            paper_topo.cross_links(Link.of(1, 18))

    def test_returned_set_is_a_copy(self, paper_topo):
        crossers = paper_topo.cross_links(Link.of(5, 12))
        crossers.add(Link.of(1, 2))
        crossers.discard(Link.of(6, 11))
        assert paper_topo.cross_links(Link.of(5, 12)) == {Link.of(6, 11)}

