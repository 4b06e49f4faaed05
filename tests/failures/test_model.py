"""Tests for repro.failures.model."""

import pytest

from repro.errors import TopologyError
from repro.failures import FailureScenario
from repro.geometry import Circle, Point, UnionRegion
from repro.topology import Link


class TestFromRegion:
    def test_nodes_inside_fail(self, grid5):
        # Grid nodes are at (c*100, r*100); the circle covers node 12 only.
        scenario = FailureScenario.from_region(grid5, Circle(Point(200, 200), 50))
        assert scenario.failed_nodes == frozenset({12})

    def test_links_of_failed_node_fail(self, grid5):
        scenario = FailureScenario.from_region(grid5, Circle(Point(200, 200), 50))
        assert Link.of(12, 11) in scenario.failed_links
        assert Link.of(12, 17) in scenario.failed_links

    def test_links_crossing_without_failed_endpoint(self, grid5):
        # A circle between nodes 12 and 13 cuts the link without killing
        # either router.
        scenario = FailureScenario.from_region(grid5, Circle(Point(250, 200), 20))
        assert scenario.failed_nodes == frozenset()
        assert scenario.failed_links == frozenset({Link.of(12, 13)})

    def test_empty_region(self, grid5):
        scenario = FailureScenario.from_region(grid5, Circle(Point(5000, 5000), 10))
        assert not scenario.failed_nodes
        assert not scenario.failed_links


class TestConstructors:
    def test_single_link(self, ring8):
        scenario = FailureScenario(ring8, failed_links=[Link.of(0, 1)])
        assert scenario.failed_links == frozenset({Link.of(0, 1)})
        assert not scenario.failed_nodes

    def test_from_nodes(self, ring8):
        scenario = FailureScenario(ring8, failed_nodes=[3])
        assert scenario.failed_nodes == frozenset({3})
        assert scenario.failed_links == frozenset({Link.of(2, 3), Link.of(3, 4)})

    def test_unknown_node_rejected(self, ring8):
        with pytest.raises(TopologyError):
            FailureScenario(ring8, failed_nodes=[99])


class TestQueries:
    def test_liveness(self, ring8):
        scenario = FailureScenario(ring8, failed_nodes=[3])
        assert not scenario.is_node_live(3)
        assert scenario.is_node_live(2)
        assert not scenario.is_link_live(Link.of(2, 3))
        assert scenario.is_link_live(Link.of(1, 2))

    def test_live_nodes(self, ring8):
        scenario = FailureScenario(ring8, failed_nodes=[3])
        assert scenario.live_nodes() == set(range(8)) - {3}

    def test_reachable_in_survivor_graph(self, ring8):
        scenario = FailureScenario(ring8, failed_nodes=[3])
        assert scenario.reachable(2, 4)  # the long way around

    def test_unreachable_when_partitioned(self, tiny_line):
        scenario = FailureScenario(tiny_line, failed_links=[Link.of(1, 2)])
        assert not scenario.reachable(0, 2)
        assert scenario.reachable(0, 1)

    def test_failed_endpoint_unreachable(self, ring8):
        scenario = FailureScenario(ring8, failed_nodes=[3])
        assert not scenario.reachable(0, 3)
        assert not scenario.reachable(3, 0)



class TestMerge:
    """Several failure areas at once (§III-E) are one ``UnionRegion``."""

    def test_merged_failures_union(self, grid5):
        # One circle swallows node 12, the other cuts only link 13-14.
        first, second = Circle(Point(200, 200), 50), Circle(Point(350, 200), 20)
        a = FailureScenario.from_region(grid5, first)
        b = FailureScenario.from_region(grid5, second)
        merged = FailureScenario.from_region(grid5, UnionRegion([first, second]))
        assert merged.failed_nodes == a.failed_nodes | b.failed_nodes == {12}
        assert merged.failed_links == a.failed_links | b.failed_links
        assert Link.of(13, 14) in merged.failed_links

    def test_merged_regions_combined(self, grid5):
        region = UnionRegion([Circle(Point(0, 0), 10), Circle(Point(400, 400), 10)])
        merged = FailureScenario.from_region(grid5, region)
        assert merged.region is region
        assert merged.failed_nodes == {0, 24}
