"""Tests for repro.core.constraints (Constraints 1 and 2 of §III-C)."""

from repro.core import CrossLinkState
from repro.failures import LocalView
from repro.simulator import RecoveryHeader
from repro.topology import Link


def make_state(topo, header=None):
    return CrossLinkState(topo, header or RecoveryHeader())


def lid(topo, a, b):
    return topo.link_index(Link.of(a, b))


class TestRecording:
    def test_record_updates_header(self, paper_topo):
        header = RecoveryHeader()
        state = make_state(paper_topo, header)
        assert state.record(lid(paper_topo, 6, 11))
        assert header.cross_links == [Link.of(6, 11)]

    def test_record_deduplicates(self, paper_topo):
        state = make_state(paper_topo)
        assert state.record(lid(paper_topo, 6, 11))
        assert not state.record(lid(paper_topo, 6, 11))

    def test_resumes_from_existing_header(self, paper_topo):
        # Multi-area recovery hands a pre-populated header to a new
        # initiator; the state must honour its contents.
        header = RecoveryHeader(cross_links=[Link.of(6, 11)])
        state = make_state(paper_topo, header)
        assert state.barred[lid(paper_topo, 5, 12)]


class TestExclusion:
    def test_crossing_link_excluded(self, paper_topo):
        state = make_state(paper_topo)
        state.record(lid(paper_topo, 6, 11))
        assert state.barred[lid(paper_topo, 5, 12)]

    def test_non_crossing_link_allowed(self, paper_topo):
        state = make_state(paper_topo)
        state.record(lid(paper_topo, 6, 11))
        assert not state.barred[lid(paper_topo, 5, 4)]

    def test_empty_state_excludes_nothing(self, paper_topo):
        state = make_state(paper_topo)
        for link in paper_topo.links():
            assert not state.barred[paper_topo.link_index(link)]


class TestConstraint1Seeding:
    def test_initiator_seeds_crossing_unreachable_links(
        self, paper_topo, paper_scenario
    ):
        view = LocalView(paper_scenario)
        state = make_state(paper_topo)
        recorded = state.seed_initiator_links(view, 6)
        # v6's only unreachable neighbor is v11 and e6,11 crosses e5,12.
        assert recorded == [Link.of(6, 11)]

    def test_non_crossing_unreachable_links_not_seeded(
        self, paper_topo, paper_scenario
    ):
        # v5's unreachable link e5,10 crosses e4,11, so it IS seeded; use
        # v9 whose link e9,10 crosses nothing.
        view = LocalView(paper_scenario)
        state = make_state(paper_topo)
        assert state.seed_initiator_links(view, 9) == []

    def test_seeding_node_without_failures(self, paper_topo, paper_scenario):
        view = LocalView(paper_scenario)
        state = make_state(paper_topo)
        assert state.seed_initiator_links(view, 17) == []


class TestConstraint2AfterSelection:
    def test_records_when_crossed_by_unexcluded_link(self, paper_topo):
        state = make_state(paper_topo)
        # e12,14 is crossed by e11,15/e11,16, neither excluded yet.
        assert state.after_selection(lid(paper_topo, 12, 14))
        assert Link.of(12, 14) in state.header.cross_links

    def test_no_record_when_crossers_already_excluded(self):
        # Links: A = 0-1, B = 2-3 (crosses A and C), C = 4-5 (crosses only
        # B).  With A recorded, B is excluded, so selecting C records
        # nothing — its only crosser can never be chosen anyway.
        from repro.geometry import Point
        from repro.topology import Topology

        topo = Topology("abc")
        for node, xy in enumerate([(0, 0), (10, 10), (0, 10), (10, 0), (3, 5), (8, 10)]):
            topo.add_node(node, Point(*xy))
        a = topo.add_link(0, 1)
        b = topo.add_link(2, 3)
        c = topo.add_link(4, 5)
        assert topo.cross_links(c) == {b}
        state = make_state(topo)
        state.record(topo.link_index(a))
        assert not state.after_selection(topo.link_index(c))
        assert state.header.cross_links == [a]

    def test_no_record_for_crossing_free_link(self, paper_topo):
        state = make_state(paper_topo)
        assert not state.after_selection(lid(paper_topo, 7, 8))
        assert state.header.cross_links == []
