"""Tests for repro.eval.runner."""

import random

import pytest

from repro.eval import EvaluationRunner, generate_cases
from repro.topology import isp_catalog


@pytest.fixture(scope="module")
def topo():
    return isp_catalog.build("AS1239", seed=0)


@pytest.fixture(scope="module")
def case_set(topo):
    return generate_cases(topo, random.Random(9), 30, 15)


class TestRunner:
    def test_unknown_approach_rejected(self, topo):
        with pytest.raises(ValueError):
            EvaluationRunner(topo, approaches=("RTR", "XYZ"))

    def test_all_approaches_run_all_cases(self, topo, case_set):
        runner = EvaluationRunner(topo, routing=case_set.routing)
        records = runner.run(case_set)
        assert set(records) == {"RTR", "FCP", "MRC"}
        for recs in records.values():
            assert len(recs) == len(case_set.cases)

    def test_rtr_theorem2_on_generated_cases(self, topo, case_set):
        runner = EvaluationRunner(
            topo, routing=case_set.routing, approaches=("RTR",)
        )
        records = runner.run(case_set)["RTR"]
        for record in records:
            if record.delivered:
                assert record.case.recoverable
                assert record.is_optimal()

    def test_fcp_full_recovery_on_recoverable(self, topo, case_set):
        runner = EvaluationRunner(
            topo, routing=case_set.routing, approaches=("FCP",)
        )
        records = runner.run(case_set)["FCP"]
        for record in records:
            assert record.delivered == record.case.recoverable

    def test_subset_run(self, topo, case_set):
        runner = EvaluationRunner(topo, routing=case_set.routing, approaches=("RTR",))
        subset = [c for c in case_set.cases if c.recoverable][:5]
        records = runner.run_cases(case_set, subset)
        assert len(records["RTR"]) == 5

    def test_records_align_with_cases(self, topo, case_set):
        runner = EvaluationRunner(topo, routing=case_set.routing, approaches=("RTR", "FCP"))
        records = runner.run(case_set)
        for a, recs in records.items():
            keys = [(r.case.initiator, r.case.destination) for r in recs]
            assert len(keys) == len(case_set.cases)
        rtr_keys = [(r.case.initiator, r.case.destination) for r in records["RTR"]]
        fcp_keys = [(r.case.initiator, r.case.destination) for r in records["FCP"]]
        assert rtr_keys == fcp_keys
