"""Tests for repro.traffic.engine (classification + batched weighting)."""

import dataclasses
import math

import pytest

from repro.errors import SimulationError
from repro.routing import RoutingTable
from repro.traffic import (
    TrafficEngine,
    aggregate_flows,
    classify_pairs,
    gravity_matrix,
    summarize_traffic,
    uniform_matrix,
)
from repro.traffic.metrics import check_accounting


@pytest.fixture()
def flow_set(paper_topo):
    return aggregate_flows(uniform_matrix(paper_topo, total_demand=100.0), 10_000)


class TestClassifyPairs:
    def test_demand_conservation(self, paper_topo, paper_scenario, flow_set):
        routing = RoutingTable(paper_topo)
        cls = classify_pairs(paper_topo, routing, paper_scenario, flow_set)
        intact = math.fsum(
            demand
            for per_dst in cls.intact_by_destination.values()
            for demand in per_dst.values()
        )
        disrupted = math.fsum(p.demand for p in cls.disrupted)
        total = (
            intact + disrupted + cls.failed_source_demand + cls.unrouted_demand
        )
        assert total == pytest.approx(flow_set.matrix.total_demand, rel=1e-9)

    def test_initiator_on_default_path(self, paper_topo, paper_scenario, flow_set):
        routing = RoutingTable(paper_topo)
        cls = classify_pairs(paper_topo, routing, paper_scenario, flow_set)
        assert cls.disrupted, "the paper scenario must disrupt something"
        for pair in cls.disrupted:
            path = routing.path(pair.source, pair.destination)
            assert pair.initiator in path.nodes
            # The initiator's next hop toward the destination is broken.
            from repro.topology import Link

            nxt = routing.next_hop(pair.initiator, pair.destination)
            assert not paper_scenario.is_link_live(
                Link.of(pair.initiator, nxt)
            ) or not paper_scenario.is_node_live(nxt)

    def test_failed_sources_counted(self, paper_topo, paper_scenario, flow_set):
        routing = RoutingTable(paper_topo)
        cls = classify_pairs(paper_topo, routing, paper_scenario, flow_set)
        dead = [n for n in paper_topo.nodes() if not paper_scenario.is_node_live(n)]
        expected = math.fsum(
            b.demand for b in flow_set.batches() if b.source in dead
        )
        assert cls.failed_source_demand == pytest.approx(expected, rel=1e-9)


class TestTrafficEngine:
    def test_scenario_record_invariants(self, paper_topo, paper_scenario, flow_set):
        engine = TrafficEngine(paper_topo, flow_set, approaches=("RTR",))
        record = engine.run_scenario(paper_scenario)["RTR"]
        assert record.approach == "RTR"
        assert record.total_demand == pytest.approx(100.0, rel=1e-9)
        assert record.disrupted_demand > 0.0
        assert record.recoverable_demand + record.irrecoverable_demand == (
            pytest.approx(record.disrupted_demand, rel=1e-9)
        )
        assert record.delivered_demand <= record.disrupted_demand + 1e-9
        assert record.delivered_recoverable_demand <= (
            record.recoverable_demand + 1e-9
        )
        assert record.max_utilization > 0.0

    def test_rtr_delivers_all_recoverable(self, paper_topo, paper_scenario, flow_set):
        engine = TrafficEngine(paper_topo, flow_set, approaches=("RTR",))
        record = engine.run_scenario(paper_scenario)["RTR"]
        assert record.delivered_recoverable_demand == pytest.approx(
            record.recoverable_demand, rel=1e-9
        )
        assert record.phase1_loss > 0.0

    def test_deterministic_across_engines(self, paper_topo, paper_scenario):
        matrix = gravity_matrix(paper_topo, total_demand=77.0, seed=5)
        flows = aggregate_flows(matrix, 5_000)
        a = TrafficEngine(paper_topo, flows).run_scenario(paper_scenario)
        b = TrafficEngine(paper_topo, flows).run_scenario(paper_scenario)
        assert a == b

    def test_sweep_orders_records(self, paper_topo, paper_scenario, flow_set):
        engine = TrafficEngine(paper_topo, flow_set, approaches=("RTR", "FCP"))
        out = engine.run_sweep([paper_scenario, paper_scenario])
        assert [r.scenario_index for r in out["RTR"]] == [0, 1]
        assert set(out) == {"RTR", "FCP"}


class TestAccountingIdentity:
    """A record whose demand does not add up is an error, not a table row."""

    @pytest.fixture()
    def record(self, paper_topo, paper_scenario, flow_set):
        engine = TrafficEngine(paper_topo, flow_set, approaches=("RTR",))
        return engine.run_scenario(paper_scenario, 4)["RTR"]

    def test_honest_record_passes(self, record):
        check_accounting(record)
        assert summarize_traffic([record]).scenarios == 1

    @pytest.mark.parametrize(
        "doctor, complaint",
        [
            (
                lambda r: {"recoverable_demand": r.recoverable_demand + 1.0},
                "recoverable + irrecoverable demand",
            ),
            (
                lambda r: {
                    "delivered_recoverable_demand": r.recoverable_demand * (1 + 1e-6)
                },
                "delivered recoverable demand",
            ),
            (
                lambda r: {"admission_dropped_demand": r.disrupted_demand},
                "delivered + admission-dropped demand",
            ),
        ],
    )
    def test_doctored_record_raises_one_line(self, record, doctor, complaint):
        broken = dataclasses.replace(record, **doctor(record))
        for check in (check_accounting, lambda r: summarize_traffic([record, r])):
            with pytest.raises(SimulationError) as caught:
                check(broken)
            message = str(caught.value)
            assert complaint in message and "RTR scenario 4" in message
            assert "\n" not in message

    def test_rounding_slack_is_relative(self, record):
        nudged = dataclasses.replace(
            record, recoverable_demand=record.recoverable_demand * (1 + 1e-12)
        )
        check_accounting(nudged)

    def test_engine_checks_every_record_it_emits(
        self, paper_topo, paper_scenario, flow_set, monkeypatch
    ):
        """The check sits on the engine's own output path, not only the summary's."""
        engine = TrafficEngine(paper_topo, flow_set, approaches=("RTR", "FCP"))
        checked = []
        monkeypatch.setattr("repro.traffic.engine.check_accounting", checked.append)
        out = engine.run_scenario(paper_scenario)
        assert checked == [out["RTR"], out["FCP"]]
