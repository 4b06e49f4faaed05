"""Tests for repro.failures.detection (the local-knowledge boundary)."""

import pytest

from repro.schemes.fcp import FCP
from repro.schemes.mrc import MRC
from repro.core import RTR
from repro.errors import SimulationError, UnknownLinkError, UnknownNodeError
from repro.failures import FailureScenario, LocalView, find_initiator
from repro.geometry import Point
from repro.topology import Link
from repro.topology.examples import PAPER_FAILURE_REGION, paper_figure_topology


class TestLocalView:
    def test_neighbor_of_failed_node_unreachable(self, ring8):
        scenario = FailureScenario(ring8, failed_nodes=[3])
        view = LocalView(scenario)
        assert not view.is_neighbor_reachable(2, 3)
        assert view.is_neighbor_reachable(2, 1)

    def test_failed_link_unreachable_from_both_ends(self, ring8):
        scenario = FailureScenario(ring8, failed_links=[Link.of(0, 1)])
        view = LocalView(scenario)
        assert not view.is_neighbor_reachable(0, 1)
        assert not view.is_neighbor_reachable(1, 0)

    def test_non_neighbor_rejected_as_unknown_link(self, ring8):
        # 0 and 4 both exist in ring8 but are not adjacent: that is a
        # missing *link*, not a missing node, and the error must say so
        # (and name both endpoints).
        view = LocalView(FailureScenario(ring8))
        with pytest.raises(UnknownLinkError) as exc:
            view.is_neighbor_reachable(0, 4)
        assert exc.value.link == Link.of(0, 4)

    def test_unknown_node_still_rejected_as_unknown_node(self, ring8):
        view = LocalView(FailureScenario(ring8))
        with pytest.raises(UnknownNodeError):
            view.is_neighbor_reachable(0, 99)
        with pytest.raises(UnknownNodeError):
            view.is_neighbor_reachable(99, 0)

    def test_cannot_distinguish_node_from_link_failure(self, ring8):
        # The information asymmetry of §II-A: from node 2's view, a failed
        # neighbor 3 and a failed link 2-3 look identical.
        node_fail = LocalView(FailureScenario(ring8, failed_nodes=[3]))
        link_fail = LocalView(
            FailureScenario(
                ring8, failed_links=[Link.of(2, 3), Link.of(3, 4)]
            )
        )
        assert node_fail.unreachable_neighbors(2) == link_fail.unreachable_neighbors(2)

    def test_unreachable_neighbors_of_paper_example(self, paper_scenario):
        view = LocalView(paper_scenario)
        assert sorted(view.unreachable_neighbors(11)) == [4, 6, 10]
        assert view.unreachable_neighbors(6) == [11]
        assert view.unreachable_neighbors(5) == [10]
        assert view.unreachable_neighbors(7) == []

    def test_reachable_neighbors_complement(self, paper_scenario):
        view = LocalView(paper_scenario)
        topo = paper_scenario.topo
        for node in paper_scenario.live_nodes():
            reach = {
                nb
                for nb in topo.neighbors(node)
                if view.is_neighbor_reachable(node, nb)
            }
            unreach = set(view.unreachable_neighbors(node))
            assert reach | unreach == set(topo.neighbors(node))
            assert not reach & unreach

    def test_locally_failed_links(self, paper_scenario):
        view = LocalView(paper_scenario)
        assert view.locally_failed_links(6) == [Link.of(6, 11)]

    def test_caching_returns_same_answer(self, paper_scenario):
        view = LocalView(paper_scenario)
        first = view.unreachable_neighbors(11)
        second = view.unreachable_neighbors(11)
        assert first == second
        assert view.failed_lids(11) is view.failed_lids(11)

    def test_failed_lids_match_unreachable_neighbors(self, paper_scenario):
        view = LocalView(paper_scenario)
        csr = paper_scenario.topo.csr()
        for node in paper_scenario.live_nodes():
            assert view.failed_lids(node) == tuple(
                csr.pair_lid[(node, nb)] for nb in view.unreachable_neighbors(node)
            )


def _paper_with_island():
    """The paper example plus node 99, which no link reaches."""
    topo = paper_figure_topology()
    topo.add_node(99, Point(1000.0, 1000.0))
    return topo, FailureScenario.from_region(topo, PAPER_FAILURE_REGION)


PROTOCOLS = {
    "RTR": RTR,
    "FCP": FCP,
    "MRC": lambda topo, scenario: MRC(topo, scenario, configurations=[]),
}


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
class TestRecoverFlowInitiator:
    """Every ``recover_flow`` finds its initiator one way, with one set of errors."""

    @pytest.mark.parametrize(
        "source, destination, message",
        [
            (10, 17, "source 10 has failed; nothing to recover"),
            (7, 99, "no pre-failure route 7 -> 99"),
            (1, 2, "default path 1 -> 2 did not fail"),
        ],
        ids=["failed-source", "no-route", "path-intact"],
    )
    def test_rejections(self, name, source, destination, message):
        protocol = PROTOCOLS[name](*_paper_with_island())
        with pytest.raises(SimulationError) as info:
            protocol.recover_flow(source, destination)
        assert str(info.value) == message

    def test_initiator_is_the_detecting_node(self, name):
        protocol = PROTOCOLS[name](*_paper_with_island())
        assert find_initiator(protocol.view, protocol.routing, 7, 17) == (6, 11)
