"""Tests for repro.core.rtr (the full protocol orchestration)."""

import pytest

from repro.core import RTR, RTRConfig
from repro.errors import SimulationError
from repro.failures import FailureScenario
from repro.topology import Link


class TestRecover:
    def test_paper_example_end_to_end(self, paper_topo, paper_scenario):
        rtr = RTR(paper_topo, paper_scenario)
        result = rtr.recover(6, 17, 11)
        assert result.delivered
        assert list(result.path.nodes) == [6, 5, 12, 18, 17]
        assert result.sp_computations == 1
        assert result.phase1_hops == 11

    def test_trigger_derived_from_routing_table(self, paper_topo, paper_scenario):
        rtr = RTR(paper_topo, paper_scenario)
        result = rtr.recover(6, 17)  # next hop toward 17 is v11 (failed)
        assert result.delivered

    def test_failed_initiator_rejected(self, ring8):
        scenario = FailureScenario(ring8, failed_nodes=[3])
        rtr = RTR(ring8, scenario)
        with pytest.raises(SimulationError):
            rtr.recover(3, 0)

    def test_reachable_next_hop_rejected(self, paper_topo, paper_scenario):
        rtr = RTR(paper_topo, paper_scenario)
        with pytest.raises(SimulationError):
            rtr.recover(6, 7)  # default next hop toward 7 still works

    def test_phase1_cached_across_destinations(self, paper_topo, paper_scenario):
        rtr = RTR(paper_topo, paper_scenario)
        rtr.recover(6, 17, 11)
        first = rtr.phase1_for(6, 11)
        rtr.recover(6, 15, 11)
        assert rtr.phase1_for(6, 11) is first

    def test_each_case_counts_one_sp(self, paper_topo, paper_scenario):
        # Even with the cached tree, every test case reports one SP
        # calculation (§IV-C accounting).
        rtr = RTR(paper_topo, paper_scenario)
        r1 = rtr.recover(6, 17, 11)
        r2 = rtr.recover(6, 15, 11)
        assert r1.sp_computations == 1
        assert r2.sp_computations == 1

    def test_unreachable_destination_dropped_at_initiator(self, tiny_line):
        scenario = FailureScenario(tiny_line, failed_links=[Link.of(1, 2)])
        rtr = RTR(tiny_line, scenario)
        result = rtr.recover(1, 2, 2)
        assert not result.delivered
        assert result.drop_hops == 0  # discarded at the initiator itself
        assert result.wasted_transmission() == 0.0
        assert result.sp_computations == 1


class TestRecoverFlow:
    def test_finds_initiator_on_default_path(self, paper_topo, paper_scenario):
        rtr = RTR(paper_topo, paper_scenario)
        initiator, trigger = rtr.find_initiator(7, 17)
        assert (initiator, trigger) == (6, 11)

    def test_flow_recovery(self, paper_topo, paper_scenario):
        rtr = RTR(paper_topo, paper_scenario)
        result = rtr.recover_flow(7, 17)
        assert result.delivered

    def test_unbroken_path_rejected(self, paper_topo, paper_scenario):
        rtr = RTR(paper_topo, paper_scenario)
        with pytest.raises(SimulationError):
            rtr.recover_flow(1, 2)

    def test_failed_source_rejected(self, paper_topo, paper_scenario):
        rtr = RTR(paper_topo, paper_scenario)
        with pytest.raises(SimulationError):
            rtr.recover_flow(10, 17)


class TestConfig:
    def test_full_and_incremental_equivalent(self, paper_topo, paper_scenario):
        inc = RTR(paper_topo, paper_scenario, config=RTRConfig(use_incremental=True))
        full = RTR(paper_topo, paper_scenario, config=RTRConfig(use_incremental=False))
        a = inc.recover(6, 17, 11)
        b = full.recover(6, 17, 11)
        assert a.delivered == b.delivered
        assert a.path.cost == b.path.cost

    def test_clockwise_config_runs(self, paper_topo, paper_scenario):
        rtr = RTR(paper_topo, paper_scenario, config=RTRConfig(clockwise=True))
        result = rtr.recover(6, 17, 11)
        assert result.delivered  # mirror sweep still recovers optimally
        assert result.path.cost == 4


class TestAccountingShape:
    def test_timeline_covers_phase1_and_phase2(self, paper_topo, paper_scenario):
        rtr = RTR(paper_topo, paper_scenario)
        result = rtr.recover(6, 17, 11)
        acc = result.accounting
        assert acc.hops_traveled == result.phase1_hops + len(result.path.nodes) - 1
        assert len(acc.header_timeline) == acc.hops_traveled

    def test_phase1_duration_reported(self, paper_topo, paper_scenario):
        rtr = RTR(paper_topo, paper_scenario)
        result = rtr.recover(6, 17, 11)
        assert result.phase1_duration == pytest.approx(11 * 1.8e-3)
