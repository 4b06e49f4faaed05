"""Tests for repro.schemes.fcp (Failure-Carrying Packets)."""

import random

import pytest

from repro.schemes.fcp import FCP
from repro.schemes.oracle import Oracle
from repro.errors import SimulationError
from repro.failures import FailureScenario, LocalView, random_circle
from repro.topology import Link, geometric_isp


class TestBasicRecovery:
    def test_paper_example_delivers(self, paper_topo, paper_scenario):
        fcp = FCP(paper_topo, paper_scenario)
        result = fcp.recover(6, 17, 11)
        assert result.delivered
        assert result.path.destination == 17

    def test_header_carries_trigger_link(self, paper_topo, paper_scenario):
        fcp = FCP(paper_topo, paper_scenario)
        result = fcp.recover(6, 17, 11)
        # FCP records the encountered failure; at minimum the trigger.
        assert result.sp_computations >= 1

    def test_reachable_next_hop_rejected(self, paper_topo, paper_scenario):
        fcp = FCP(paper_topo, paper_scenario)
        with pytest.raises(SimulationError):
            fcp.recover(6, 7)

    def test_failed_initiator_rejected(self, paper_topo, paper_scenario):
        fcp = FCP(paper_topo, paper_scenario)
        with pytest.raises(SimulationError):
            fcp.recover(10, 17, 11)

    def test_flow_api(self, paper_topo, paper_scenario):
        fcp = FCP(paper_topo, paper_scenario)
        result = fcp.recover_flow(7, 17)
        assert result.delivered


class TestCompleteness:
    """FCP always delivers to reachable destinations (100 % recovery,
    Table III) — it keeps learning failures until a clean path works."""

    @pytest.mark.parametrize("seed", range(4))
    def test_always_delivers_when_recoverable(self, seed):
        rng = random.Random(seed)
        topo = geometric_isp(30, 60, rng)
        scenario = FailureScenario.from_region(topo, random_circle(rng))
        while not scenario.failed_links:
            scenario = FailureScenario.from_region(topo, random_circle(rng))
        fcp = FCP(topo, scenario)
        oracle = Oracle(topo, scenario)
        view = LocalView(scenario)
        from repro.routing import RoutingTable

        routing = RoutingTable(topo)
        checked = 0
        for initiator in sorted(scenario.live_nodes()):
            bad = set(view.unreachable_neighbors(initiator))
            if not bad:
                continue
            for destination in sorted(scenario.live_nodes()):
                nh = routing.next_hop(initiator, destination)
                if nh not in bad:
                    continue
                result = fcp.recover(initiator, destination, nh)
                if oracle.is_recoverable(initiator, destination):
                    assert result.delivered
                else:
                    assert not result.delivered
                checked += 1
                if checked > 30:
                    return

    def test_drops_only_when_truly_unreachable(self, tiny_line):
        scenario = FailureScenario(tiny_line, failed_links=[Link.of(1, 2)])
        fcp = FCP(tiny_line, scenario)
        result = fcp.recover(1, 2, 2)
        assert not result.delivered
        assert result.sp_computations == 1


class TestRecomputationBudget:
    def test_exceeding_max_recomputations_raises(self, grid5):
        # 12 -> 14 first tries 12-7-8-9-14, learns e8,9 at node 8 and
        # recomputes 8-13-14: two attempts.
        scenario = FailureScenario(
            grid5, failed_links=[Link.of(12, 13), Link.of(8, 9)]
        )
        result = FCP(grid5, scenario, max_recomputations=2).recover(12, 14, 13)
        assert result.delivered and result.sp_computations == 2
        assert list(result.path.nodes) == [12, 7, 8, 13, 14]
        with pytest.raises(SimulationError, match="FCP exceeded 1 recomputations"):
            FCP(grid5, scenario, max_recomputations=1).recover(12, 14, 13)


class TestOverheadShape:
    def test_multiple_recomputations_under_area_failure(self):
        # FCP discovers failures one at a time; with a large area it must
        # recompute more than RTR's single calculation at least sometimes.
        rng = random.Random(42)
        topo = geometric_isp(40, 80, rng)
        max_sp = 0
        for _ in range(20):
            scenario = FailureScenario.from_region(topo, random_circle(rng))
            if not scenario.failed_links:
                continue
            fcp = FCP(topo, scenario)
            view = LocalView(scenario)
            from repro.routing import RoutingTable

            routing = RoutingTable(topo)
            for initiator in sorted(scenario.live_nodes()):
                bad = set(view.unreachable_neighbors(initiator))
                for destination in sorted(scenario.live_nodes()):
                    nh = routing.next_hop(initiator, destination)
                    if nh not in bad:
                        continue
                    result = fcp.recover(initiator, destination, nh)
                    max_sp = max(max_sp, result.sp_computations)
        assert max_sp > 1

    def test_wasted_transmission_positive_on_wandering_drop(self):
        # An irrecoverable case where FCP wanders before giving up.
        rng = random.Random(7)
        for _ in range(60):
            topo = geometric_isp(30, 55, rng)
            scenario = FailureScenario.from_region(topo, random_circle(rng))
            if not scenario.failed_links:
                continue
            fcp = FCP(topo, scenario)
            oracle = Oracle(topo, scenario)
            view = LocalView(scenario)
            from repro.routing import RoutingTable

            routing = RoutingTable(topo)
            for initiator in sorted(scenario.live_nodes()):
                bad = set(view.unreachable_neighbors(initiator))
                for destination in sorted(topo.nodes()):
                    nh = routing.next_hop(initiator, destination)
                    if nh not in bad:
                        continue
                    if oracle.is_recoverable(initiator, destination):
                        continue
                    result = fcp.recover(initiator, destination, nh)
                    if result.drop_hops > 0:
                        assert result.wasted_transmission() >= 1000
                        return
        pytest.skip("no wandering-drop case found")
