"""Unit tests for the walk plane (repro.simulator.batch).

Batch lifecycle, insertion-order execution, per-request error capture,
the table-walk semantics (clocks compared bit-exactly via ``float.hex``),
``run_plan`` and its continuations, and the observability surface.
"""

import re
from pathlib import Path

import pytest

from repro import obs
from repro.chaos import ChaosForwardingEngine, ChaosRuntime, FaultPlan
from repro.errors import SimulationError, UnknownLinkError
from repro.failures import FailureScenario, LocalView
from repro.simulator import (
    CallbackWalkSpec,
    ForwardingEngine,
    Packet,
    RecoveryAccounting,
    RecoveryResult,
    SourceRouteSpec,
    TableWalkSpec,
    WalkBatch,
    WalkPlan,
    run_plan,
)
from repro.simulator.batch import batched_walk_count
from repro.topology import Link

ROOT = Path(__file__).resolve().parents[2]


def make_engine(topo, failed_nodes=(), failed_links=()):
    scenario = FailureScenario(topo, failed_nodes, failed_links)
    return ForwardingEngine(topo, LocalView(scenario))


def run_table(engine, start, table, destination, budget):
    packet = Packet(source=start, destination=destination)
    acc = RecoveryAccounting()
    batch = WalkBatch(engine)
    handle = batch.add(TableWalkSpec(table, destination, budget), packet, acc)
    return packet, acc, batch.execute().result(handle)


class TestLifecycle:
    def test_result_before_execute_raises(self, ring8):
        batch = WalkBatch(make_engine(ring8))
        handle = batch.add(
            SourceRouteSpec([0, 1]),
            Packet(source=0, destination=1),
            RecoveryAccounting(),
        )
        with pytest.raises(SimulationError):
            batch.result(handle)

    def test_add_after_execute_raises(self, ring8):
        batch = WalkBatch(make_engine(ring8))
        batch.execute()
        with pytest.raises(SimulationError):
            batch.add(
                SourceRouteSpec([0, 1]),
                Packet(source=0, destination=1),
                RecoveryAccounting(),
            )

    def test_double_execute_raises(self, ring8):
        batch = WalkBatch(make_engine(ring8))
        batch.execute()
        with pytest.raises(SimulationError):
            batch.execute()

    def test_add_without_engine_raises(self):
        batch = WalkBatch(None)
        with pytest.raises(SimulationError):
            batch.add(
                SourceRouteSpec([0, 1]),
                Packet(source=0, destination=1),
                RecoveryAccounting(),
            )

    def test_exceptions_are_captured_per_request(self, ring8):
        batch = WalkBatch(make_engine(ring8))

        def exploding(node, pkt):
            raise RuntimeError("synthetic walk crash")

        bad = batch.add(
            CallbackWalkSpec(exploding),
            Packet(source=0, destination=0),
            RecoveryAccounting(),
        )
        good = batch.add(
            SourceRouteSpec([0, 1, 2]),
            Packet(source=0, destination=2),
            RecoveryAccounting(),
        )
        batch.execute()
        assert batch.result(good).delivered
        with pytest.raises(RuntimeError, match="synthetic walk crash"):
            batch.result(bad)

    def test_requests_execute_in_insertion_order(self, ring8):
        # A chaos engine draws its seeded loss stream once per prospective
        # hop, so one batch must lose exactly the packets the same walks
        # lose when driven one by one in the order they were added.
        def chaos_engine():
            scenario = FailureScenario(ring8)
            runtime = ChaosRuntime(FaultPlan(seed=3, packet_loss_rate=0.3), scenario)
            return ChaosForwardingEngine(ring8, LocalView(scenario), runtime)

        routes = [[(s + k) % 8 for k in range(4)] for s in range(8)]

        def circle(node, pkt):
            return None if node == pkt.destination else (node + 1) % 8

        engine = chaos_engine()
        one_by_one = []
        for route in routes:
            start, end = route[0], route[-1]
            one_by_one.append(
                engine.follow_source_route_outcome(
                    Packet(source=start, destination=end), route, RecoveryAccounting()
                ).lost
            )
            one_by_one.append(
                engine.walk_outcome(
                    Packet(source=start, destination=end), circle, RecoveryAccounting()
                ).lost
            )

        batch = WalkBatch(chaos_engine())
        handles = []
        for route in routes:
            start, end = route[0], route[-1]
            handles.append(
                batch.add(
                    SourceRouteSpec(route),
                    Packet(source=start, destination=end),
                    RecoveryAccounting(),
                )
            )
            handles.append(
                batch.add(
                    CallbackWalkSpec(circle),
                    Packet(source=start, destination=end),
                    RecoveryAccounting(),
                )
            )
        batch.execute()
        batched = [batch.result(h).lost for h in handles]
        assert batched == one_by_one
        assert any(batched) and not all(batched)

    def test_mixed_batch(self, ring8):
        # Routes, a table and a callback in one batch: each request gets
        # its own outcome type and its own accounting.
        engine = make_engine(ring8, failed_links=[Link.of(4, 5)])
        batch = WalkBatch(engine)
        p1, a1 = Packet(source=0, destination=3), RecoveryAccounting()
        h1 = batch.add(SourceRouteSpec([0, 1, 2, 3]), p1, a1)
        p2, a2 = Packet(source=3, destination=6), RecoveryAccounting()
        h2 = batch.add(SourceRouteSpec([3, 4, 5, 6]), p2, a2)
        p3, a3 = Packet(source=0, destination=4), RecoveryAccounting()
        h3 = batch.add(TableWalkSpec({i: i + 1 for i in range(4)}, 4, 40), p3, a3)
        p4, a4 = Packet(source=7, destination=7), RecoveryAccounting()
        h4 = batch.add(CallbackWalkSpec(lambda node, pkt: None), p4, a4)
        batch.execute()

        assert batch.result(h1).delivered and (p1.at, a1.hops_traveled) == (3, 3)
        blocked = batch.result(h2)
        assert not blocked.delivered and blocked.drop_node == 4
        assert (p2.at, a2.hops_traveled) == (4, 1)
        table = batch.result(h3)
        assert table.reached and table.visited == [0, 1, 2, 3, 4]
        assert 0.0 < a2.clock < a1.clock < a3.clock  # 1, 3 and 4 hops
        assert batch.result(h4).visited == [7] and a4.hops_traveled == 0


class TestTableWalk:
    @pytest.mark.parametrize(
        "table, destination, budget, expect",
        [
            ({0: 1, 1: 2}, 2, 40, "reached"),
            ({0: 1}, 2, 40, "stuck"),
            ({0: 1, 1: 0}, 2, 5, "truncated"),
        ],
    )
    def test_table_walk_statuses(self, tiny_line, table, destination, budget, expect):
        packet, acc, outcome = run_table(
            make_engine(tiny_line), 0, table, destination, budget
        )
        assert outcome.reached == (expect == "reached")
        assert outcome.truncated == (expect == "truncated")
        assert outcome.visited[-1] == packet.at
        assert acc.hops_traveled == len(outcome.visited) - 1
        assert len(acc.header_timeline) == acc.hops_traveled
        if expect == "stuck":
            assert outcome.drop_reason == "no table next hop at 1"
        if expect == "truncated":
            assert acc.hops_traveled == budget

    def test_table_walk_blocked_hop(self, tiny_line):
        engine = make_engine(tiny_line, failed_links=[Link.of(1, 2)])
        packet, acc, outcome = run_table(engine, 0, {0: 1, 1: 2}, 2, 40)
        assert not outcome.reached and outcome.drop_node == 1
        assert "table hop 1 -> 2 is unreachable" in outcome.drop_reason
        assert (packet.at, acc.hops_traveled) == (1, 1)

    def test_table_walk_destination_on_budget_boundary(self, tiny_line):
        # Reaching the destination on exactly the budget-th hop truncates:
        # the destination check happens at the top of the next iteration,
        # which never runs.
        packet, _, outcome = run_table(make_engine(tiny_line), 0, {0: 1, 1: 2}, 2, 2)
        assert packet.at == 2
        assert outcome.truncated and not outcome.reached

    def test_table_with_non_adjacent_hop_raises(self, tiny_line):
        with pytest.raises(UnknownLinkError):
            run_table(make_engine(tiny_line), 0, {0: 2}, 2, 40)


class TestRunPlan:
    def test_immediate_plan_needs_no_engine(self):
        done = RecoveryResult(
            approach="X", delivered=False, path=None, accounting=RecoveryAccounting()
        )
        assert run_plan(None, WalkPlan(immediate=done)) is done

    def test_delivered_route_reaches_finish(self, ring8):
        packet, acc = Packet(source=0, destination=2), RecoveryAccounting()
        plan = WalkPlan(
            spec=SourceRouteSpec(route=[0, 1, 2]),
            packet=packet,
            accounting=acc,
            finish=lambda outcome: RecoveryResult(
                approach="X", delivered=outcome.delivered, path=None, accounting=acc
            ),
        )
        result = run_plan(make_engine(ring8), plan)
        assert result.delivered and packet.at == 2
        assert result.accounting.hops_traveled == 2

    def test_finish_may_return_the_next_plan(self, ring8):
        # A continuation: the first walk's finish hands back a second plan
        # for the same packet; run_plan walks it and returns its result.
        engine = make_engine(ring8, failed_links=[Link.of(2, 3)])
        packet, acc = Packet(source=0, destination=5), RecoveryAccounting()
        outcomes = []

        def second(outcome):
            outcomes.append(outcome)
            return RecoveryResult(
                approach="X", delivered=outcome.delivered, path=None, accounting=acc
            )

        def first(outcome):
            outcomes.append(outcome)
            return WalkPlan(
                spec=SourceRouteSpec([packet.at, 1, 0, 7, 6, 5]),
                packet=packet,
                accounting=acc,
                finish=second,
            )

        plan = WalkPlan(
            spec=SourceRouteSpec([0, 1, 2, 3, 4, 5]),
            packet=packet,
            accounting=acc,
            finish=first,
        )
        result = run_plan(engine, plan)
        assert [o.delivered for o in outcomes] == [False, True]
        assert outcomes[0].drop_node == 2
        assert result.delivered and packet.at == 5
        assert acc.hops_traveled == 2 + 5  # 0-1-2, then 2-1-0-7-6-5

    def test_finish_exception_propagates(self, ring8):
        def finish(outcome):
            raise RuntimeError("synthetic finish crash")

        plan = WalkPlan(
            spec=SourceRouteSpec(route=[0, 1]),
            packet=Packet(source=0, destination=1),
            accounting=RecoveryAccounting(),
            finish=finish,
        )
        with pytest.raises(RuntimeError, match="synthetic finish crash"):
            run_plan(make_engine(ring8), plan)


class TestObservability:
    @pytest.fixture(autouse=True)
    def obs_state(self):
        prior = obs.enabled()
        obs.enable()
        obs.reset()
        yield
        obs.reset()
        if not prior:
            obs.disable()

    def test_executed_counter_counts_every_walk(self, ring8):
        batch = WalkBatch(make_engine(ring8))
        for _ in range(3):
            batch.add(
                SourceRouteSpec([0, 1, 2]),
                Packet(source=0, destination=2),
                RecoveryAccounting(),
            )
        batch.execute()
        metrics = obs.snapshot()["metrics"]
        assert metrics["counters"]["simulator.walks.executed"] == 3
        # Every case's walks run one by one: no batch-size histogram.
        assert "simulator.walks.batch_size" not in metrics["histograms"]

    def test_counters_visible_in_obs_report(self, ring8):
        # The `repro obs report` rendering must surface the walk-plane
        # counter.
        batch = WalkBatch(make_engine(ring8))
        batch.add(
            SourceRouteSpec([0, 1, 2]),
            Packet(source=0, destination=2),
            RecoveryAccounting(),
        )
        batch.execute()
        run = {
            "manifest": {"name": "walkplane-test", "seed": 0},
            "span_aggregates": {},
            "metrics": obs.snapshot()["metrics"],
            "events": [],
        }
        text = obs.render_report(run)
        assert "simulator.walks.executed" in text


class TestOneWalkEngine:
    """Source scans: the removed second engine and its knob stay removed."""

    def test_walk_and_chaos_layers_do_not_import_numpy(self):
        pattern = re.compile(r"^\s*(from|import)\s.*\b(numpy|npcsr)\b", re.MULTILINE)
        offenders = [
            str(path.relative_to(ROOT))
            for package in ("simulator", "chaos")
            for path in (ROOT / "src" / "repro" / package).rglob("*.py")
            if pattern.search(path.read_text())
        ]
        assert offenders == []

    def test_batched_walk_count_stays_resolvable(self):
        # benchmarks/e2e/metrics.py binds this accessor by name.
        assert batched_walk_count() == 0

    def test_walk_backend_variable_is_gone(self):
        scanned = [ROOT / "README.md", ROOT / "DESIGN.md"]
        for folder in ("src", "docs", ".github"):
            scanned.extend(
                path
                for path in (ROOT / folder).rglob("*")
                if path.is_file() and path.suffix in (".py", ".md", ".yml", ".json")
            )
        offenders = [
            str(path.relative_to(ROOT)) for path in scanned if "REPRO_WALK" in path.read_text()
        ]
        assert offenders == []
