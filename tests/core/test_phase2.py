"""Tests for repro.core.phase2 (recomputation and source routing)."""

import pytest

from repro.core import Phase2Engine, run_phase1
from repro.core.phase2 import (
    compile_phase2_delivery,
    no_route_result,
    phase2_result_from_outcome,
)
from repro.failures import FailureScenario, LocalView
from repro.simulator import ForwardingEngine, RecoveryAccounting
from repro.topology import Link


@pytest.fixture
def paper_setup(paper_topo, paper_scenario):
    view = LocalView(paper_scenario)
    engine = ForwardingEngine(paper_topo, view)
    phase1 = run_phase1(paper_topo, view, 6, 11, engine)
    return paper_topo, paper_scenario, view, engine, phase1


class TestPhase2Engine:
    def test_recovery_path_is_shortest_in_g_minus_e1(self, paper_setup):
        topo, scenario, view, engine, phase1 = paper_setup
        p2 = Phase2Engine(topo, 6, phase1)
        path = p2.recovery_path(17)
        assert path is not None
        assert list(path.nodes) == [6, 5, 12, 18, 17]

    def test_tree_computed_once(self, paper_setup):
        topo, _, _, _, phase1 = paper_setup
        p2 = Phase2Engine(topo, 6, phase1)
        p2.recovery_path(17)
        p2.recovery_path(15)
        p2.recovery_path(14)
        assert p2.sp_computations == 1  # caching, §III-D

    def test_incremental_and_full_agree(self, paper_setup):
        topo, _, _, _, phase1 = paper_setup
        incremental = Phase2Engine(topo, 6, phase1, use_incremental=True)
        full = Phase2Engine(topo, 6, phase1, use_incremental=False)
        for destination in topo.nodes():
            if destination == 6:
                continue
            a = incremental.recovery_path(destination)
            b = full.recovery_path(destination)
            if a is None:
                assert b is None
            else:
                assert b is not None
                assert a.cost == b.cost

    def test_unreachable_destination_none(self, tiny_line):
        scenario = FailureScenario(tiny_line, failed_links=[Link.of(1, 2)])
        view = LocalView(scenario)
        engine = ForwardingEngine(tiny_line, view)
        phase1 = run_phase1(tiny_line, view, 1, 2, engine)
        p2 = Phase2Engine(tiny_line, 1, phase1)
        assert p2.recovery_path(2) is None


def deliver(engine, p2, destination, accounting):
    """One phase-2 delivery attempt: compile, walk the route, fold."""
    route, header, packet = compile_phase2_delivery(p2, destination)
    if route is None:
        return no_route_result(p2)
    before = accounting.hops_traveled
    walk = engine.follow_source_route_outcome(packet, list(route.nodes), accounting)
    return phase2_result_from_outcome(route, header, before, accounting, walk)


class TestRunPhase2:
    def test_delivery_on_clean_route(self, paper_setup):
        topo, _, view, engine, phase1 = paper_setup
        p2 = Phase2Engine(topo, 6, phase1)
        acc = RecoveryAccounting()
        outcome = deliver(engine, p2, 17, acc)
        assert outcome.delivered
        assert outcome.drop_node is None
        assert outcome.hops_traveled == 4
        assert outcome.route_header_bytes > 0

    def test_drop_at_initiator_when_no_route(self, tiny_line):
        scenario = FailureScenario(tiny_line, failed_links=[Link.of(1, 2)])
        view = LocalView(scenario)
        engine = ForwardingEngine(tiny_line, view)
        phase1 = run_phase1(tiny_line, view, 1, 2, engine)
        p2 = Phase2Engine(tiny_line, 1, phase1)
        outcome = deliver(engine, p2, 2, RecoveryAccounting())
        assert not outcome.delivered
        assert outcome.drop_node == 1
        assert outcome.hops_traveled == 0

    def test_drop_en_route_on_missed_failure(self, grid5):
        # Fail a link the walk cannot see: give the initiator information
        # that misses e13,18 by failing it *between* two live nodes far
        # from the walk... simplest: craft phase-1 knowledge manually.
        from repro.core.phase1 import Phase1Result

        scenario = FailureScenario(
            grid5, failed_links=[Link.of(6, 11), Link.of(12, 17)]
        )
        view = LocalView(scenario)
        engine = ForwardingEngine(grid5, view)
        # Pretend phase 1 saw only the trigger link e6,11.
        phase1 = Phase1Result(
            initiator=6,
            walk=[6],
            collected_failed_links=[],
            cross_links=[],
            local_failed_links=[Link.of(6, 11)],
            hops=0,
            duration=0.0,
        )
        p2 = Phase2Engine(grid5, 6, phase1)
        route = p2.recovery_path(16)
        assert route is not None
        if any(not scenario.is_link_live(Link.of(a, b)) for a, b in route.hops()):
            outcome = deliver(engine, p2, 16, RecoveryAccounting())
            assert not outcome.delivered
            assert outcome.drop_node is not None
