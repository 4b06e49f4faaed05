"""Tests for repro.core.sweep (the right-hand rule)."""

import pytest

from repro.core import select_next_hop
from repro.core.sweep import sweep_order
from repro.errors import UnknownLinkError
from repro.failures import FailureScenario, LocalView
from repro.geometry import Point
from repro.topology import Link, Topology


def plus_topology() -> Topology:
    """A center node 0 with neighbors at the four compass points."""
    topo = Topology("plus")
    topo.add_node(0, Point(0, 0))
    topo.add_node(1, Point(100, 0))   # east
    topo.add_node(2, Point(0, 100))   # north
    topo.add_node(3, Point(-100, 0))  # west
    topo.add_node(4, Point(0, -100))  # south
    for leaf in (1, 2, 3, 4):
        topo.add_link(0, leaf)
    # Ring so leaves are not dead ends.
    topo.add_link(1, 2)
    topo.add_link(2, 3)
    topo.add_link(3, 4)
    topo.add_link(4, 1)
    return topo


def view_with(topo, failed_nodes=(), failed_links=()):
    return LocalView(FailureScenario(topo, failed_nodes, failed_links))


class TestSweepOrder:
    def test_counterclockwise_from_reference(self):
        topo = plus_topology()
        order = sweep_order(topo, 0, 1)
        # Reference east; CCW hits north, west, south, then east itself.
        assert order == [2, 3, 4, 1]

    def test_reference_sorts_last(self):
        topo = plus_topology()
        assert sweep_order(topo, 0, 3)[-1] == 3

    def test_clockwise_mirrors(self):
        topo = plus_topology()
        order = sweep_order(topo, 0, 1, clockwise=True)
        assert order == [4, 3, 2, 1]

    def test_non_adjacent_reference_rejected(self, grid5):
        # The sweeping line starts on a link; node 24 is across the grid.
        with pytest.raises(UnknownLinkError):
            sweep_order(grid5, 0, 24)

    def test_self_reference_rejected(self, grid5):
        with pytest.raises(UnknownLinkError):
            sweep_order(grid5, 0, 0)


class TestSelectNextHop:
    def test_selects_first_live(self):
        topo = plus_topology()
        view = view_with(topo)
        assert select_next_hop(topo, view, 0, 1) == 2

    def test_skips_unreachable(self):
        topo = plus_topology()
        view = view_with(topo, failed_nodes=[2])
        assert select_next_hop(topo, view, 0, 1) == 3

    def test_skips_excluded(self):
        topo = plus_topology()
        view = view_with(topo)
        barred = bytearray(topo.csr().lid_size)
        for link in (Link.of(0, 2), Link.of(0, 3)):
            barred[topo.link_index(link)] = 1
        chosen = select_next_hop(topo, view, 0, 1, barred=barred)
        assert chosen == 4

    def test_falls_back_to_previous_hop(self):
        # Dead-end behaviour: with everything else gone, go back.
        topo = plus_topology()
        view = view_with(topo, failed_nodes=[2, 3, 4])
        assert select_next_hop(topo, view, 0, 1) == 1

    def test_none_when_isolated(self):
        topo = plus_topology()
        view = view_with(
            topo, failed_links=[Link.of(0, nb) for nb in (1, 2, 3, 4)]
        )
        assert select_next_hop(topo, view, 0, 1) is None

    def test_first_hop_matches_paper_example(self, paper_topo, paper_scenario):
        view = LocalView(paper_scenario)
        # Case 1 of §III-B: the sweep starts at the link to the unreachable
        # default next hop (v11).
        assert select_next_hop(paper_topo, view, 6, 11) == 5

    def test_tree_branch_backtracking(self, tiny_line):
        # At the end of a line the only option is the previous hop.
        view = view_with(tiny_line)
        assert select_next_hop(tiny_line, view, 2, 1) == 1


class TestSweepGeometry:
    def test_paper_hop_v5(self, paper_topo, paper_scenario):
        # At v5 coming from v6, with e6,11 recorded, v12 is excluded and
        # the sweep lands on v4 (the Fig. 4 fix).
        view = LocalView(paper_scenario)
        blocked_by = Link.of(6, 11)
        barred = bytearray(
            blocked_by in paper_topo.cross_links(link) if link is not None else 0
            for link in paper_topo.csr().links
        )
        assert select_next_hop(paper_topo, view, 5, 6, barred) == 4

    def test_paper_hop_v5_without_constraint(self, paper_topo, paper_scenario):
        # Without Constraint 1 the sweep would pick v12 — the forwarding
        # disorder of Fig. 4.
        view = LocalView(paper_scenario)
        assert select_next_hop(paper_topo, view, 5, 6) == 12
