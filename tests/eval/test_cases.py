"""Tests for repro.eval.cases (test-case generation, §IV-A)."""

import random

import pytest

from repro.eval import enumerate_scenario_cases, generate_cases
from repro.failures import LocalView
from repro.routing import RoutingTable
from repro.topology import isp_catalog


@pytest.fixture(scope="module")
def topo():
    return isp_catalog.build("AS1239", seed=0)


class TestEnumerateScenarioCases:
    def test_paper_example_cases(self, paper_topo, paper_scenario):
        routing = RoutingTable(paper_topo)
        cases = list(
            enumerate_scenario_cases(paper_topo, routing, paper_scenario)
        )
        assert cases, "the example failure must produce test cases"
        # v6 initiating toward v17 is among them (the running example).
        assert any(
            c.initiator == 6 and c.destination == 17 and c.trigger == 11
            for c in cases
        )

    def test_initiators_are_live_and_adjacent(self, paper_topo, paper_scenario):
        routing = RoutingTable(paper_topo)
        view = LocalView(paper_scenario)
        for case in enumerate_scenario_cases(paper_topo, routing, paper_scenario):
            assert paper_scenario.is_node_live(case.initiator)
            assert case.trigger in view.unreachable_neighbors(case.initiator)

    def test_triggers_match_routing_table(self, paper_topo, paper_scenario):
        routing = RoutingTable(paper_topo)
        for case in enumerate_scenario_cases(paper_topo, routing, paper_scenario):
            assert routing.next_hop(case.initiator, case.destination) == case.trigger

    def test_classification_matches_oracle(self, paper_topo, paper_scenario):
        from repro.schemes.oracle import Oracle

        routing = RoutingTable(paper_topo)
        oracle = Oracle(paper_topo, paper_scenario)
        for case in enumerate_scenario_cases(paper_topo, routing, paper_scenario):
            assert case.recoverable == oracle.is_recoverable(
                case.initiator, case.destination
            )
            if case.recoverable:
                assert case.optimal_cost == oracle.optimal_cost(
                    case.initiator, case.destination
                )

    def test_failed_destination_is_irrecoverable_case(
        self, paper_topo, paper_scenario
    ):
        routing = RoutingTable(paper_topo)
        cases = list(
            enumerate_scenario_cases(paper_topo, routing, paper_scenario)
        )
        toward_failed = [c for c in cases if c.destination == 10]
        assert toward_failed
        assert all(not c.recoverable for c in toward_failed)

    def test_no_duplicate_cases(self, paper_topo, paper_scenario):
        routing = RoutingTable(paper_topo)
        cases = list(
            enumerate_scenario_cases(paper_topo, routing, paper_scenario)
        )
        keys = [(c.initiator, c.destination) for c in cases]
        assert len(keys) == len(set(keys))


class TestGenerateCases:
    def test_quotas_met(self, topo):
        case_set = generate_cases(topo, random.Random(1), 50, 30)
        assert sum(c.recoverable for c in case_set.cases) == 50
        assert len(case_set.cases) == 80

    def test_scenario_indices_valid(self, topo):
        case_set = generate_cases(topo, random.Random(2), 30, 20)
        for case in case_set.cases:
            assert 0 <= case.scenario_index < len(case_set.scenarios)

    def test_by_scenario_partition(self, topo):
        case_set = generate_cases(topo, random.Random(3), 25, 25)
        grouped = case_set.by_scenario()
        assert sum(len(v) for v in grouped.values()) == len(case_set.cases)

    def test_deterministic(self, topo):
        a = generate_cases(topo, random.Random(4), 20, 20)
        b = generate_cases(topo, random.Random(4), 20, 20)
        assert [
            (c.initiator, c.destination, c.trigger) for c in a.cases
        ] == [(c.initiator, c.destination, c.trigger) for c in b.cases]

    def test_zero_quota(self, topo):
        case_set = generate_cases(topo, random.Random(5), 10, 0)
        assert [c.recoverable for c in case_set.cases] == [True] * 10
