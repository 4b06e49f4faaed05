"""Unit tests for the walk plane (repro.simulator.batch).

Walks run in the order they are asked for, each spec with its own outcome
type, the table-walk semantics, ``run_plan`` and its continuations, the
observability surface, and source scans pinning the removed walk engines.
"""

import re
from pathlib import Path

import pytest

from repro import obs
from repro.chaos import ChaosForwardingEngine, ChaosRuntime, FaultPlan
from repro.errors import UnknownLinkError
from repro.failures import FailureScenario, LocalView
from repro.simulator import (
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

from ..conftest import ring_sweep, sweep_field_trace

ROOT = Path(__file__).resolve().parents[2]


def make_engine(topo, failed_nodes=(), failed_links=()):
    scenario = FailureScenario(topo, failed_nodes, failed_links)
    return ForwardingEngine(topo, LocalView(scenario))


def walk(engine, spec, packet, acc):
    """One walk through the walk plane."""
    batch = WalkBatch(engine)
    batch.add(spec, packet, acc)
    return batch.execute()


def run_table(engine, start, table, destination, budget):
    packet = Packet(source=start, destination=destination)
    acc = RecoveryAccounting()
    spec = TableWalkSpec(table, destination, budget)
    return packet, acc, walk(engine, spec, packet, acc)


class TestLifecycle:
    def test_requests_execute_in_insertion_order(self, ring8):
        # A chaos engine draws its seeded loss stream once per prospective
        # hop, so walks through the walk plane must lose exactly the
        # packets the same walks lose when driven directly, in order.
        def chaos_engine():
            scenario = FailureScenario(ring8, failed_links=[Link.of(4, 5)])
            runtime = ChaosRuntime(FaultPlan(seed=3, packet_loss_rate=0.1), scenario)
            return ChaosForwardingEngine(ring8, LocalView(scenario), runtime)

        routes = [[(s + k) % 8 for k in range(4)] for s in range(8)]

        def requests():
            for route in routes:
                packet = Packet(source=route[0], destination=route[-1])
                yield SourceRouteSpec(route), packet
                yield ring_sweep(strict=False)

        engine = chaos_engine()
        direct = [
            spec.walk(engine, packet, RecoveryAccounting()).lost
            for spec, packet in requests()
        ]
        engine = chaos_engine()
        planned = [
            walk(engine, spec, packet, RecoveryAccounting()).lost
            for spec, packet in requests()
        ]
        assert planned == direct
        assert any(planned[1::2]) and not all(planned[1::2])

    def test_mixed_batch(self, ring8):
        # Routes, a table and a phase-1 sweep: each walk gets its own
        # outcome type and its own accounting.
        engine = make_engine(ring8, failed_links=[Link.of(4, 5)])
        p1, a1 = Packet(source=0, destination=3), RecoveryAccounting()
        o1 = walk(engine, SourceRouteSpec([0, 1, 2, 3]), p1, a1)
        p2, a2 = Packet(source=3, destination=6), RecoveryAccounting()
        blocked = walk(engine, SourceRouteSpec([3, 4, 5, 6]), p2, a2)
        p3, a3 = Packet(source=0, destination=4), RecoveryAccounting()
        table = walk(engine, TableWalkSpec({i: i + 1 for i in range(4)}, 4, 40), p3, a3)
        (spec, p4), a4 = ring_sweep(), RecoveryAccounting()
        sweep = walk(engine, spec, p4, a4)

        assert o1.delivered and (p1.at, a1.hops_traveled) == (3, 3)
        assert not blocked.delivered and blocked.drop_node == 4
        assert (p2.at, a2.hops_traveled) == (4, 1)
        assert table.reached and table.visited == [0, 1, 2, 3, 4]
        assert 0.0 < a2.clock < a1.clock < a3.clock < a4.clock  # 1, 3, 4, 14 hops
        assert sweep.reached and sweep.visited[::7] == [4, 5, 4]
        assert a4.hops_traveled == 14 and len(sweep_field_trace(spec, a4, sweep)) == 15


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
        engine = make_engine(ring8)
        for _ in range(3):
            walk(
                engine,
                SourceRouteSpec([0, 1, 2]),
                Packet(source=0, destination=2),
                RecoveryAccounting(),
            )
        metrics = obs.snapshot()["metrics"]
        assert metrics["counters"]["simulator.walks.executed"] == 3
        # Every case's walks run one by one: no batch-size histogram.
        assert "simulator.walks.batch_size" not in metrics["histograms"]

    def test_counters_visible_in_obs_report(self, ring8):
        # The `repro obs report` rendering must surface the walk-plane
        # counter.
        walk(
            make_engine(ring8),
            SourceRouteSpec([0, 1, 2]),
            Packet(source=0, destination=2),
            RecoveryAccounting(),
        )
        run = {
            "manifest": {"name": "walkplane-test", "seed": 0},
            "span_aggregates": {},
            "metrics": obs.snapshot()["metrics"],
            "events": [],
        }
        text = obs.render_report(run)
        assert "simulator.walks.executed" in text


class TestOneWalkEngine:
    """Source scans: the removed walk engines and the knob stay removed."""

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

    def test_callback_engine_is_gone(self):
        # Every spec runs its own loop: no callback walk, no batch handle
        # protocol, no dispatch on the spec's type.
        removed = (
            "CallbackWalkSpec",
            "walk_outcome",
            "NextHopFn",
            "_CapturedError",
            "isinstance(spec",
        )
        offenders = [
            (str(path.relative_to(ROOT)), name)
            for path in (ROOT / "src").rglob("*.py")
            for name in removed
            if name in path.read_text()
        ]
        assert offenders == []
