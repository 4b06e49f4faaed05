"""Tests for per-case error isolation and degraded-mode sweeps."""

import random

import pytest

from repro.chaos import FaultPlan, SecondaryFailure
from repro.eval import (
    EvaluationRunner,
    generate_cases,
    summarize_resilience,
)
from repro.topology import isp_catalog


@pytest.fixture(scope="module")
def topo():
    return isp_catalog.build("AS1239", seed=0)


@pytest.fixture(scope="module")
def case_set(topo):
    return generate_cases(topo, random.Random(9), 30, 15)


class TestErrorIsolation:
    def test_crashing_protocol_records_error_and_continues(
        self, topo, case_set, monkeypatch
    ):
        from repro.core import rtr as rtr_module

        calls = {"n": 0}
        original = rtr_module.RTR.plan_recovery

        def flaky(self, initiator, destination, trigger_neighbor=None):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("synthetic per-case crash")
            return original(self, initiator, destination, trigger_neighbor)

        # Patch the plan-compile step every case runs through.
        monkeypatch.setattr(rtr_module.RTR, "plan_recovery", flaky)
        runner = EvaluationRunner(topo, routing=case_set.routing, approaches=("RTR",))
        records = runner.run(case_set)["RTR"]
        # The sweep survived the crash and every case produced a record.
        assert len(records) == len(case_set.cases)
        errors = [r for r in records if r.status == "error"]
        assert len(errors) == 1
        assert "RuntimeError: synthetic per-case crash" in errors[0].result.error
        assert not errors[0].delivered


class TestChaosSweep:
    def test_acceptance_sweep_completes_with_valid_statuses(self, topo, case_set):
        # The ISSUE acceptance case: 5% recovery-packet loss plus one
        # mid-walk secondary failure on the Sprintlink-like topology; the
        # full sweep must complete and classify every case.
        plan = FaultPlan(
            seed=42,
            packet_loss_rate=0.05,
            secondary_failures=(SecondaryFailure(at_hop=5),),
        )
        runner = EvaluationRunner(
            topo, routing=case_set.routing, approaches=("RTR",), fault_plan=plan
        )
        records = runner.run(case_set)["RTR"]
        assert len(records) == len(case_set.cases)
        valid = {"delivered", "dropped", "fallback", "error"}
        assert all(r.status in valid for r in records)
        # Determinism: the same plan yields the same statuses.
        rerun = EvaluationRunner(
            topo, routing=case_set.routing, approaches=("RTR",), fault_plan=plan
        ).run(case_set)["RTR"]
        assert [r.status for r in rerun] == [r.status for r in records]

    def test_resilience_summary_accounts_every_case(self, topo, case_set):
        plan = FaultPlan(seed=42, packet_loss_rate=0.05)
        runner = EvaluationRunner(
            topo, routing=case_set.routing, approaches=("RTR",), fault_plan=plan
        )
        records = runner.run(case_set)["RTR"]
        summary = summarize_resilience(records)
        assert (
            summary.delivered + summary.dropped + summary.fallbacks + summary.errors
            == summary.cases
            == len(records)
        )
        assert 0.0 <= summary.delivery_ratio <= 1.0
        assert summary.rtr_delivery_ratio <= summary.delivery_ratio
        row = summary.as_dict()
        assert row["approach"] == "RTR"

    def test_loss_only_plan_leaves_fcp_unchanged(self, topo, case_set):
        # Fault plans now wrap every scheme (see tests/schemes/
        # test_fault_wrapping.py for baselines being perturbed), but
        # packet loss specifically models recovery-packet drops in the
        # walk driver — FCP forwards through table walks, so a
        # loss-only plan must not change its outcomes.
        plan = FaultPlan(seed=42, packet_loss_rate=0.2)
        chaotic = EvaluationRunner(
            topo, routing=case_set.routing, approaches=("FCP",), fault_plan=plan
        ).run(case_set)["FCP"]
        clean = EvaluationRunner(
            topo, routing=case_set.routing, approaches=("FCP",)
        ).run(case_set)["FCP"]
        assert [r.delivered for r in chaotic] == [r.delivered for r in clean]

