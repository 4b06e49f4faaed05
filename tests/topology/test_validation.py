"""Tests for repro.topology.validation."""

import pytest

from repro.errors import TopologyError
from repro.geometry import Point
from repro.topology import Topology, grid_topology, star_topology
from repro.topology.validation import (
    average_degree,
    average_link_length,
    crossing_count,
    degree_histogram,
    leaf_count,
    stats,
    summarize_catalog,
    validate,
)


class TestValidate:
    def test_valid_topology_passes(self, grid5):
        validate(grid5)

    def test_single_node_rejected(self):
        topo = Topology("one")
        topo.add_node(0, Point(0, 0))
        with pytest.raises(TopologyError):
            validate(topo)

    def test_disconnected_rejected(self):
        topo = Topology("two-islands")
        topo.add_node(0, Point(0, 0))
        topo.add_node(1, Point(10, 0))
        topo.add_node(2, Point(100, 0))
        topo.add_node(3, Point(110, 0))
        topo.add_link(0, 1)
        topo.add_link(2, 3)
        with pytest.raises(TopologyError):
            validate(topo)

    def test_non_finite_position_rejected(self):
        # A topology cannot hold one: add_node refuses it.
        topo = Topology("inf")
        topo.add_node(0, Point(0, 0))
        with pytest.raises(TopologyError):
            topo.add_node(1, Point(float("inf"), 0))
        assert topo.node_count == 1


class TestStats:
    def test_degree_histogram_grid(self):
        hist = degree_histogram(grid_topology(3, 3))
        assert hist == {2: 4, 3: 4, 4: 1}

    def test_leaf_count_star(self):
        assert leaf_count(star_topology(6)) == 6

    def test_average_degree(self, ring8):
        assert average_degree(ring8) == 2.0

    def test_average_link_length_grid(self):
        assert average_link_length(grid_topology(2, 2, spacing=50)) == 50.0

    def test_crossing_count_planar(self, grid5):
        assert crossing_count(grid5) == 0

    def test_crossing_count_paper(self, paper_topo):
        assert crossing_count(paper_topo) > 0

    def test_stats_keys(self, grid5):
        s = stats(grid5)
        assert s["nodes"] == 25
        assert s["links"] == 40
        assert s["connected"] is True

    def test_summarize_catalog(self, grid5, ring8):
        rows = summarize_catalog({"g": grid5, "r": ring8})
        assert len(rows) == 2
