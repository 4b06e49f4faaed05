"""End-to-end integration tests across all subsystems.

Each test exercises the full pipeline the way a user of the library would:
build a topology, drop a failure area on it, run recovery protocols, and
check the paper's headline claims at small scale.
"""

import random

import pytest

from repro import (
    FCP,
    MRC,
    FailureScenario,
    Oracle,
    RTR,
    RTRConfig,
    isp_catalog,
    random_circle,
)
from repro.schemes.mrc import generate_configurations
from repro.eval import EvaluationRunner, generate_cases, summarize_recoverable
from repro.failures import LocalView
from repro.routing import RoutingTable


@pytest.fixture(scope="module")
def topo():
    return isp_catalog.build("AS209", seed=0)


@pytest.fixture(scope="module")
def case_set(topo):
    return generate_cases(topo, random.Random(77), 80, 40)


@pytest.fixture(scope="module")
def records(topo, case_set):
    runner = EvaluationRunner(topo, routing=case_set.routing)
    return runner.run(case_set)


class TestHeadlineClaims:
    def test_rtr_recovery_rate_band(self, records):
        recs = [r for r in records["RTR"] if r.case.recoverable]
        summary = summarize_recoverable(recs)
        # Paper Table III: 97.7 % - 99.2 % per topology.  Small-sample runs
        # get slack, but the rate must stay high.
        assert summary.recovery_rate >= 0.90

    def test_rtr_optimality_identity(self, records):
        # Recovery rate == optimal recovery rate for RTR (Theorem 2).
        recs = [r for r in records["RTR"] if r.case.recoverable]
        summary = summarize_recoverable(recs)
        assert summary.recovery_rate == summary.optimal_recovery_rate

    def test_approach_ordering(self, records):
        # Optimal recovery: RTR > FCP > MRC (Table III's consistent order).
        rates = {}
        for approach in ("RTR", "FCP", "MRC"):
            recs = [r for r in records[approach] if r.case.recoverable]
            rates[approach] = summarize_recoverable(recs).optimal_recovery_rate
        assert rates["RTR"] > rates["FCP"] > rates["MRC"]

    def test_rtr_cheaper_than_fcp_on_irrecoverable(self, records):
        rtr = [r for r in records["RTR"] if not r.case.recoverable]
        fcp = [r for r in records["FCP"] if not r.case.recoverable]
        rtr_comp = sum(r.result.sp_computations for r in rtr) / len(rtr)
        fcp_comp = sum(r.result.sp_computations for r in fcp) / len(fcp)
        assert rtr_comp == 1.0
        assert fcp_comp > rtr_comp
        rtr_trans = sum(r.result.wasted_transmission() for r in rtr) / len(rtr)
        fcp_trans = sum(r.result.wasted_transmission() for r in fcp) / len(fcp)
        assert rtr_trans < fcp_trans

    def test_no_false_deliveries(self, records):
        # Nobody may deliver to an unreachable destination.
        for approach, recs in records.items():
            for record in recs:
                if not record.case.recoverable:
                    assert not record.delivered, approach


class TestProtocolInterop:
    def test_same_scenario_shared_by_all(self, topo):
        rng = random.Random(5)
        scenario = FailureScenario.from_region(topo, random_circle(rng))
        while not scenario.failed_links:
            scenario = FailureScenario.from_region(topo, random_circle(rng))
        routing = RoutingTable(topo)
        view = LocalView(scenario)
        rtr = RTR(topo, scenario, routing=routing)
        fcp = FCP(topo, scenario, routing=routing)
        mrc = MRC(
            topo,
            scenario,
            configurations=generate_configurations(topo, seed=0),
            routing=routing,
        )
        oracle = Oracle(topo, scenario)
        ran = 0
        for initiator in sorted(scenario.live_nodes()):
            bad = set(view.unreachable_neighbors(initiator))
            if not bad:
                continue
            for destination in sorted(scenario.live_nodes()):
                nh = routing.next_hop(initiator, destination)
                if nh not in bad:
                    continue
                results = [
                    rtr.recover(initiator, destination, nh),
                    fcp.recover(initiator, destination, nh),
                    mrc.recover(initiator, destination, nh),
                ]
                optimal = oracle.optimal_cost(initiator, destination)
                for result in results:
                    if result.delivered:
                        assert optimal is not None
                        assert result.path.cost >= optimal - 1e-9
                ran += 1
                if ran >= 25:
                    return
        assert ran > 0


class TestConfigurationVariants:
    def test_incremental_matches_full_across_cases(self, topo, case_set):
        inc = EvaluationRunner(
            topo,
            routing=case_set.routing,
            approaches=("RTR",),
            rtr_config=RTRConfig(use_incremental=True),
        )
        full = EvaluationRunner(
            topo,
            routing=case_set.routing,
            approaches=("RTR",),
            rtr_config=RTRConfig(use_incremental=False),
        )
        subset = case_set.cases[:40]
        a = inc.run_cases(case_set, subset)["RTR"]
        b = full.run_cases(case_set, subset)["RTR"]
        for ra, rb in zip(a, b):
            assert ra.delivered == rb.delivered
            if ra.delivered:
                assert ra.result.path.cost == rb.result.path.cost
