"""Tests for repro.topology.generators."""

import random

import pytest

from repro.errors import TopologyError
from repro.topology import geometric_isp, grid_topology
from repro.topology.generators import random_positions

from ..conftest import ring_topology, star_topology


class TestGeometricIsp:
    def test_exact_counts(self):
        topo = geometric_isp(30, 60, random.Random(1))
        assert topo.node_count == 30
        assert topo.link_count == 60

    def test_connected(self):
        for seed in range(5):
            topo = geometric_isp(25, 40, random.Random(seed))
            assert topo.is_connected()

    def test_tree_edge_count(self):
        # Minimum link count (n-1) yields exactly a spanning tree.
        topo = geometric_isp(20, 19, random.Random(2))
        assert topo.link_count == 19
        assert topo.is_connected()

    def test_deterministic_for_seed(self):
        t1 = geometric_isp(15, 30, random.Random(7))
        t2 = geometric_isp(15, 30, random.Random(7))
        assert sorted(t1.links()) == sorted(t2.links())
        assert all(t1.position(n) == t2.position(n) for n in t1.nodes())

    def test_positions_within_area(self):
        topo = geometric_isp(20, 30, random.Random(3), area=500)
        for node in topo.nodes():
            pos = topo.position(node)
            assert 0 <= pos.x <= 500
            assert 0 <= pos.y <= 500

    def test_too_few_links_rejected(self):
        with pytest.raises(TopologyError):
            geometric_isp(10, 8, random.Random(0))

    def test_too_many_links_rejected(self):
        with pytest.raises(TopologyError):
            geometric_isp(5, 11, random.Random(0))

    def test_full_mesh_possible(self):
        topo = geometric_isp(6, 15, random.Random(0))
        assert topo.link_count == 15

    def test_single_node_rejected(self):
        with pytest.raises(TopologyError):
            geometric_isp(1, 0, random.Random(0))

    def test_locality_bias(self):
        # Strongly local graphs should have shorter links on average.
        from repro.topology.validation import average_link_length

        local = geometric_isp(40, 120, random.Random(5), locality=0.05)
        spread = geometric_isp(40, 120, random.Random(5), locality=2.0)
        assert average_link_length(local) < average_link_length(spread)


class TestGrid:
    def test_counts(self):
        topo = grid_topology(3, 4)
        assert topo.node_count == 12
        assert topo.link_count == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_planar(self):
        assert grid_topology(4, 4).is_planar_embedding()

    def test_connected(self):
        assert grid_topology(6, 2).is_connected()

    def test_corner_degree(self):
        topo = grid_topology(3, 3)
        assert topo.degree(0) == 2
        assert topo.degree(4) == 4  # center

    def test_invalid_dims(self):
        with pytest.raises(TopologyError):
            grid_topology(0, 3)


# Ring and star are test-only builders (tests/conftest.py); these pin the
# shapes the fixtures built on them rely on.
class TestRing:
    def test_counts(self):
        topo = ring_topology(8)
        assert topo.node_count == 8
        assert topo.link_count == 8

    def test_every_degree_two(self):
        topo = ring_topology(6)
        assert all(topo.degree(n) == 2 for n in topo.nodes())

    def test_minimum_size(self):
        with pytest.raises(TopologyError):
            ring_topology(2)

    def test_planar(self):
        assert ring_topology(12).is_planar_embedding()


class TestStar:
    def test_counts(self):
        topo = star_topology(5)
        assert topo.node_count == 6
        assert topo.link_count == 5

    def test_hub_degree(self):
        topo = star_topology(7)
        assert topo.degree(0) == 7
        assert all(topo.degree(n) == 1 for n in topo.nodes() if n != 0)

    def test_needs_a_leaf(self):
        with pytest.raises(TopologyError):
            star_topology(0)


class TestRandomPositions:
    def test_count_and_bounds(self):
        pos = random_positions(50, random.Random(0), area=100)
        assert len(pos) == 50
        assert all(0 <= p.x <= 100 and 0 <= p.y <= 100 for p in pos.values())
