"""Tests for the hardened RTR pipeline under injected faults.

Covers every rung of the fallback ladder: phase-1 retry with backoff,
§III-D re-invocation after a phase-2 drop at a secondary failure, and the
OSPF-reconvergence fallback when RTR itself cannot complete — plus the
guarantee that a null/absent plan leaves the paper's behaviour untouched.
"""

import pytest

from repro.chaos import FaultPlan, SecondaryFailure
from repro.core import RTR, RTRConfig
from repro.failures import FailureScenario
from repro.topology import Link, grid_topology


@pytest.fixture
def grid_scenario():
    topo = grid_topology(5, 5)
    # Center link 12-13 fails; the clean recovery route for 12 -> 14 is
    # 12, 7, 8, 9, 14 and the phase-1 walk takes 6 hops (pinned below).
    return topo, FailureScenario(topo, failed_links=[Link.of(12, 13)])


class TestBackwardCompatibility:
    def test_no_plan_keeps_paper_accounting(self, grid_scenario):
        topo, scenario = grid_scenario
        result = RTR(topo, scenario).recover(12, 14, 13)
        assert result.status == "delivered"
        assert result.accounting.sp_computations == 1
        assert result.retries == 0 and not result.fallback

    def test_null_plan_is_ignored_entirely(self, grid_scenario):
        topo, scenario = grid_scenario
        rtr = RTR(topo, scenario, fault_plan=FaultPlan())
        assert rtr.chaos is None  # no chaos wiring, no hardened defaults
        assert rtr.config.max_phase2_reinvocations == 0

    def test_plan_without_config_selects_hardened_defaults(self, grid_scenario):
        topo, scenario = grid_scenario
        rtr = RTR(topo, scenario, fault_plan=FaultPlan(packet_loss_rate=0.01))
        assert rtr.config.fallback_to_reconvergence
        assert rtr.config.max_phase2_reinvocations > 0


class TestPhase1Retries:
    def test_lost_walk_retried_until_complete(self, grid_scenario):
        topo, scenario = grid_scenario
        # Seed 1 at 5% loss: the first walk attempts die, a retry lands.
        plan = FaultPlan(seed=1, packet_loss_rate=0.05)
        rtr = RTR(topo, scenario, fault_plan=plan)
        result = rtr.recover(12, 14, 13)
        phase1 = rtr.phase1_for(12, 13)
        assert phase1.complete and phase1.retries > 0
        assert result.status == "delivered"
        assert result.retries == phase1.retries
        # Cumulative accounting: the retried walk cost more than a clean one.
        clean = RTR(topo, scenario).phase1_for(12, 13)
        assert phase1.hops > clean.hops
        assert phase1.duration > clean.duration

    def test_backoff_advances_the_clock(self, grid_scenario):
        topo, scenario = grid_scenario
        plan = FaultPlan(seed=0, packet_loss_rate=1.0)
        config = RTRConfig.hardened(retry_backoff_s=0.5)
        rtr = RTR(topo, scenario, config=config, fault_plan=plan)
        phase1 = rtr.phase1_for(12, 13)
        assert not phase1.complete and phase1.retries == 3
        # 0.5 + 1.0 + 2.0 of backoff are in the walk's cumulative duration.
        assert phase1.duration >= 3.5


class TestReinvocation:
    #: Flap the second route link right after the first phase-2 hop
    #: (phase-1 walk is 6 hops, so hop 7 is the packet leaving 12 for 7).
    PLAN = FaultPlan(
        seed=0, secondary_failures=(SecondaryFailure(at_hop=7, link=(7, 8)),)
    )

    def test_missed_failure_learned_and_rerouted(self, grid_scenario):
        topo, scenario = grid_scenario
        rtr = RTR(topo, scenario, fault_plan=self.PLAN)
        result = rtr.recover(12, 14, 13)
        assert result.status == "delivered"
        assert result.retries == 1
        # The re-invocation is an honest second on-demand SP calculation.
        assert result.accounting.sp_computations == 2
        used = {Link.of(u, v) for u, v in result.path.hops()}
        assert Link.of(7, 8) not in used
        assert Link.of(12, 13) not in used

    def test_paper_config_still_discards(self, grid_scenario):
        # With re-invocation off (the default config), §III-D discards at
        # the node that detects the missed failure — one SP, wasted hops.
        topo, scenario = grid_scenario
        rtr = RTR(topo, scenario, config=RTRConfig(), fault_plan=self.PLAN)
        result = rtr.recover(12, 14, 13)
        assert result.status == "dropped"
        assert result.accounting.sp_computations == 1
        assert result.drop_hops == 1
        assert result.wasted_transmission() > 0


class TestReconvergenceFallback:
    def test_total_loss_falls_back_and_delivers(self, grid_scenario):
        topo, scenario = grid_scenario
        plan = FaultPlan(seed=0, packet_loss_rate=1.0)
        rtr = RTR(topo, scenario, fault_plan=plan)
        result = rtr.recover(12, 14, 13)
        assert result.status == "fallback"
        assert result.delivered and result.fallback
        assert result.path is not None  # the post-convergence ground truth
        assert result.retries == 3
        # Waiting out IGP reconvergence dwarfs RTR's tens-of-milliseconds.
        assert result.accounting.clock > 1.0

    def test_fallbacks_of_one_initiator_share_one_oracle_tree(self, grid_scenario):
        topo, scenario = grid_scenario
        plan = FaultPlan(seed=0, packet_loss_rate=1.0)
        rtr = RTR(topo, scenario, fault_plan=plan)
        first = rtr.recover(12, 14, 13)
        oracle = rtr._oracle
        probes = rtr.sp_cache.hits + rtr.sp_cache.misses
        second = rtr.recover(12, 19, 13)
        assert first.fallback and second.fallback
        assert rtr._oracle is oracle
        # The second ground-truth path is read off the first one's tree.
        assert rtr.sp_cache.hits + rtr.sp_cache.misses == probes
        assert second.path.cost == oracle.optimal_cost(12, 19)

    def test_fallback_disabled_reports_plain_drop(self, grid_scenario):
        topo, scenario = grid_scenario
        plan = FaultPlan(seed=0, packet_loss_rate=1.0)
        config = RTRConfig(max_phase1_retries=1)
        rtr = RTR(topo, scenario, config=config, fault_plan=plan)
        result = rtr.recover(12, 14, 13)
        assert result.status == "dropped"
        assert not result.delivered and not result.fallback
        assert result.retries == 1

    def test_missed_trigger_detection_falls_back(self, grid_scenario):
        # The initiator's own detection never fires: it black-holes traffic
        # until convergence instead of invoking RTR.
        topo, scenario = grid_scenario
        plan = FaultPlan(seed=0, detection_miss_rate=1.0)
        rtr = RTR(topo, scenario, fault_plan=plan)
        result = rtr.recover(12, 14, 13)
        assert result.status == "fallback"
        assert result.delivered  # 14 survives in G - E2

    def test_fallback_to_unreachable_destination_stays_undelivered(self):
        # 0 - 1 - 2 with node 1 dead: nothing can deliver 0 -> 2, not even
        # waiting out convergence.
        from repro.topology import ring_topology

        topo = ring_topology(4)
        scenario = FailureScenario.from_nodes(topo, [1, 3])
        plan = FaultPlan(seed=0, packet_loss_rate=1.0)
        rtr = RTR(topo, scenario, fault_plan=plan)
        result = rtr.recover(0, 2, 1)
        assert not result.delivered
        assert result.path is None
