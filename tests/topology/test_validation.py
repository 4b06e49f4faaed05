"""Tests for repro.topology.validation (the ``stats`` columns)."""

import pytest

from repro.errors import TopologyError
from repro.geometry import Point
from repro.topology import Topology, grid_topology
from repro.topology.validation import (
    average_degree,
    average_link_length,
    crossing_count,
    leaf_count,
    stats,
)

from ..conftest import star_topology


def validate(topo: Topology) -> None:
    """Raise :class:`TopologyError` if ``topo`` violates a basic invariant.

    Checks: at least two nodes and connectivity.  Finite coordinates and
    positive, finite per-direction costs are enforced by
    :meth:`Topology.add_node` / :meth:`Topology.add_link` themselves, which
    ``test_non_finite_position_rejected`` pins.
    """
    if topo.node_count < 2:
        raise TopologyError(f"{topo.name}: fewer than 2 nodes")
    if not topo.is_connected():
        raise TopologyError(f"{topo.name}: not connected")


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

