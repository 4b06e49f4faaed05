"""Tests for fault injection through scheme construction.

Every walking scheme takes the same ``fault_plan`` option and builds its
view and engine with :func:`repro.chaos.forwarding_world`; schemes with
no forwarding surface run unperturbed, loudly.
"""

import random

import pytest

from repro import obs
from repro.chaos import ChaosForwardingEngine, DegradedLocalView, FaultPlan
from repro.eval import EvaluationRunner, generate_cases
from repro.failures import LocalView
from repro.routing import RoutingTable, SPTCache
from repro.schemes import create_scheme
from repro.simulator import ForwardingEngine
from repro.topology import isp_catalog

WALKING_SCHEMES = ("RTR", "FCP", "MRC", "r3")


@pytest.fixture(scope="module")
def topo():
    return isp_catalog.build("AS1239", seed=0)


@pytest.fixture(scope="module")
def case_set(topo):
    return generate_cases(topo, random.Random(9), 30, 15)


def _statuses(topo, case_set, approach, plan=None):
    runner = EvaluationRunner(
        topo, routing=case_set.routing, approaches=(approach,), fault_plan=plan
    )
    return [r.status for r in runner.run(case_set)[approach]]


def _protocol(name, topo, scenario, plan):
    scheme = create_scheme(name, fault_plan=plan)
    scheme.prepare(topo, RoutingTable(topo), SPTCache())
    return scheme.instantiate(scenario).protocol


class TestFaultsReachBaselines:
    def test_detection_faults_perturb_fcp(self, topo, case_set):
        # A FaultPlan must degrade a baseline scheme, not silently no-op.
        # Detection misses make FCP see the trigger as still-reachable;
        # those cases surface as isolated error records instead of clean
        # deliveries.
        plan = FaultPlan(seed=7, detection_miss_rate=0.6)
        clean = _statuses(topo, case_set, "FCP")
        chaotic = _statuses(topo, case_set, "FCP", plan)
        assert len(chaotic) == len(clean) == len(case_set.cases)
        assert chaotic != clean
        assert "error" in chaotic  # degraded, gracefully — sweep completed

    def test_detection_faults_perturb_mrc(self, topo, case_set):
        plan = FaultPlan(seed=7, detection_miss_rate=0.6)
        assert _statuses(topo, case_set, "MRC", plan) != _statuses(
            topo, case_set, "MRC"
        )

    def test_faulted_baseline_is_deterministic(self, topo, case_set):
        plan = FaultPlan(seed=7, detection_miss_rate=0.6)
        assert _statuses(topo, case_set, "FCP", plan) == _statuses(
            topo, case_set, "FCP", plan
        )

    def test_same_plan_degrades_rtr_and_a_baseline(self, topo, case_set):
        # One FaultPlan, at least two schemes.
        plan = FaultPlan(seed=42, detection_miss_rate=0.3)
        for approach in ("RTR", "FCP"):
            statuses = _statuses(topo, case_set, approach, plan)
            assert len(statuses) == len(case_set.cases)
            assert set(statuses) <= {"delivered", "dropped", "fallback", "error"}

    def test_loss_only_plan_spares_non_walk_schemes(self, topo, case_set):
        # Packet loss models recovery-packet drops in the walk/source-route
        # drivers; FCP forwards hop-by-hop through table walks, so a
        # loss-only plan leaves it untouched while detection-level faults
        # (above) do perturb it.
        plan = FaultPlan(seed=42, packet_loss_rate=0.2)
        assert _statuses(topo, case_set, "FCP", plan) == _statuses(
            topo, case_set, "FCP"
        )


class TestWrapperMechanics:
    def test_rtr_keeps_native_degraded_mode(self, topo, case_set):
        # RTR's own hardened machinery (retry ladder, truth-view engine)
        # comes with the plan through the registry's option bag.
        from repro.core import RTRConfig

        plan = FaultPlan(seed=1, packet_loss_rate=0.1)
        rtr = _protocol("RTR", topo, case_set.scenarios[0], plan)
        assert rtr.chaos.plan is plan
        assert rtr.chaos is rtr.engine.runtime
        assert rtr.config.max_phase1_retries == RTRConfig.hardened().max_phase1_retries

    @pytest.mark.parametrize("name", WALKING_SCHEMES)
    def test_plan_builds_the_degraded_world(self, name, paper_topo, paper_scenario):
        plan = FaultPlan(seed=3, detection_miss_rate=0.2)
        protocol = _protocol(name, paper_topo, paper_scenario, plan)
        assert isinstance(protocol.view, DegradedLocalView)
        assert isinstance(protocol.engine, ChaosForwardingEngine)
        assert protocol.engine.view is protocol.view
        assert protocol.engine.runtime is protocol.view.runtime
        assert protocol.engine.runtime.plan is plan

    @pytest.mark.parametrize("name", WALKING_SCHEMES)
    def test_null_plan_builds_the_ideal_world(self, name, paper_topo, paper_scenario):
        for plan in (None, FaultPlan(seed=3)):
            protocol = _protocol(name, paper_topo, paper_scenario, plan)
            assert type(protocol.view) is LocalView
            assert type(protocol.engine) is ForwardingEngine
            assert protocol.engine.view is protocol.view

    def test_unsupported_scheme_warns_instead_of_silent_noop(
        self, topo, case_set
    ):
        # The oracle has no forwarding surface; a plan for it must be loud.
        prior = obs.enabled()
        obs.enable()
        obs.reset()
        try:
            plan = FaultPlan(seed=1, detection_miss_rate=0.5)
            runner = EvaluationRunner(
                topo,
                routing=case_set.routing,
                approaches=("Oracle",),
                fault_plan=plan,
            )
            records = runner.run(case_set)["Oracle"]
            assert len(records) == len(case_set.cases)
            counters = obs.snapshot()["metrics"]["counters"]
            assert counters["chaos.degrade.unsupported.Oracle"] >= 1
        finally:
            obs.reset()
            if not prior:
                obs.disable()
