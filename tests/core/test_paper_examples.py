"""Exact reproduction of the paper's worked example (Figs. 2/4/6, Table I).

These tests pin the implementation to the published traces: the Table I
walk, the per-hop header contents, and the recovery outcome.  If any of
them breaks, the sweep/constraint implementation has drifted from the
paper's semantics.
"""

import pytest

from repro.core import RTR, run_phase1
from repro.failures import LocalView
from repro.simulator import ForwardingEngine
from repro.topology import Link


#: Table I, reading the four columns: the packet's position per hop.
TABLE1_WALK = [6, 5, 4, 9, 13, 14, 12, 11, 12, 8, 7, 6]

#: Table I: failed_link contents in recording order.
TABLE1_FAILED = [
    Link.of(5, 10),
    Link.of(4, 11),
    Link.of(9, 10),
    Link.of(14, 10),
    Link.of(11, 10),
]

#: Table I: cross_link contents in recording order.
TABLE1_CROSS = [Link.of(6, 11), Link.of(14, 12)]


@pytest.fixture
def phase1_result(paper_topo, paper_scenario):
    view = LocalView(paper_scenario)
    engine = ForwardingEngine(paper_topo, view)
    return run_phase1(paper_topo, view, 6, 11, engine)


class TestTableI:
    def test_exact_walk(self, phase1_result):
        assert phase1_result.walk == TABLE1_WALK

    def test_hop_count_is_eleven(self, phase1_result):
        assert phase1_result.hops == 11

    def test_failed_link_field_in_order(self, phase1_result):
        assert phase1_result.collected_failed_links == TABLE1_FAILED

    def test_cross_link_field_in_order(self, phase1_result):
        assert phase1_result.cross_links == TABLE1_CROSS

    def test_per_hop_field_contents(self, phase1_result):
        # The full per-hop trace of Table I: which fields held what, when.
        e = Link.of
        expected_failed = {
            0: (),
            1: (e(5, 10),),
            2: (e(5, 10), e(4, 11)),
            3: (e(5, 10), e(4, 11), e(9, 10)),
            4: (e(5, 10), e(4, 11), e(9, 10)),
            5: (e(5, 10), e(4, 11), e(9, 10), e(14, 10)),
            6: (e(5, 10), e(4, 11), e(9, 10), e(14, 10)),
        }
        full = (e(5, 10), e(4, 11), e(9, 10), e(14, 10), e(11, 10))
        for hop in range(7, 12):
            expected_failed[hop] = full
        for hop, (node, failed, cross) in enumerate(phase1_result.field_trace):
            assert node == TABLE1_WALK[hop]
            assert failed == expected_failed[hop], f"hop {hop}"
            expected_cross = (
                (e(6, 11),) if hop < 5 else (e(6, 11), e(14, 12))
            )
            assert cross == expected_cross, f"hop {hop}"

    def test_failed_links_complete(self, phase1_result, paper_scenario):
        # In this example the walk visits every area-adjacent node, so the
        # collected set plus the initiator's local link is exactly E2.
        known = set(phase1_result.all_known_failed_links())
        assert known == set(paper_scenario.failed_links)


class TestFig6Recovery:
    def test_recovery_path(self, paper_topo, paper_scenario):
        rtr = RTR(paper_topo, paper_scenario)
        result = rtr.recover(6, 17, 11)
        assert result.delivered
        assert list(result.path.nodes) == [6, 5, 12, 18, 17]

    def test_recovery_is_optimal(self, paper_topo, paper_scenario):
        from repro.schemes.oracle import Oracle

        rtr = RTR(paper_topo, paper_scenario)
        oracle = Oracle(paper_topo, paper_scenario)
        result = rtr.recover(6, 17, 11)
        assert result.path.cost == oracle.optimal_cost(6, 17)


class TestFig4Disorder:
    def test_constraint1_blocks_e5_12(self, paper_topo, paper_scenario):
        # §III-C: "By Constraint 1, link e6,11 prevents e5,12 from being
        # selected, and thus v5 chooses v4 as the next hop."
        from repro.core import select_next_hop
        from repro.core.constraints import CrossLinkState
        from repro.simulator import RecoveryHeader

        view = LocalView(paper_scenario)
        state = CrossLinkState(paper_topo, RecoveryHeader())
        state.seed_initiator_links(view, 6)
        chosen = select_next_hop(paper_topo, view, 5, 6, state.barred)
        assert chosen == 4

    def test_without_constraint_the_disorder_occurs(
        self, paper_topo, paper_scenario
    ):
        from repro.core import select_next_hop

        view = LocalView(paper_scenario)
        assert select_next_hop(paper_topo, view, 5, 6) == 12


class TestFig6CrossLinkBlocking:
    def test_e14_12_blocks_v11_exits(self, paper_topo):
        # "At v11, e14,12 blocks e11,15 and e11,16."
        assert Link.of(14, 12) in paper_topo.cross_links(Link.of(11, 15))
        assert Link.of(14, 12) in paper_topo.cross_links(Link.of(11, 16))


class TestPlanarExample:
    def test_walk_on_planar_variant(self, paper_planar):
        # Fig. 2: on a planar graph the bare rule works without
        # constraints; the walk must terminate and collect only true
        # failures.
        from repro.failures import FailureScenario
        from repro.topology.examples import PAPER_FAILURE_REGION

        scenario = FailureScenario.from_region(paper_planar, PAPER_FAILURE_REGION)
        view = LocalView(scenario)
        unreachable = view.unreachable_neighbors(6)
        if not unreachable:
            pytest.skip("planarization removed v6's failed link")
        engine = ForwardingEngine(paper_planar, view)
        result = run_phase1(
            paper_planar, view, 6, unreachable[0], engine, use_constraints=False
        )
        assert result.walk[0] == result.walk[-1] == 6
        assert set(result.collected_failed_links) <= set(scenario.failed_links)
