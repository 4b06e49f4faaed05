"""The per-window demand-weighting plan against its executable spec.

``reference_weighter`` rebuilds every load from scratch per approach —
and, congestion-aware, a fresh ``LinkPenalty`` per case; the engine
shares one scheme-independent plan per window and keeps one live penalty
per (window, approach).  These tests pin that the sharing is invisible
(bit-identical records; the live penalty equal to a rebuild after every
group), that it happens (one ``edge_loads_to`` pass per intact
destination, however many schemes), and that the plan cannot leak
between windows.
"""

import dataclasses
import random

import pytest

from repro.errors import SimulationError
from repro.failures import FailureScenario, circle_scenarios
from repro.geometry import Circle, Point
from repro.routing import RoutingTable
from repro.te.penalty import LinkPenalty
from repro.topology import Link, grid_topology, ring_topology, topology_from_spec
from repro.topology.examples import PAPER_FAILURE_REGION, paper_figure_topology
from repro.traffic import (
    TrafficEngine,
    aggregate_flows,
    classify_pairs,
    generate_matrix,
    uniform_matrix,
)

from .reference_weighter import reference_classify, reference_run_scenario

SCHEMES = ("RTR", "FCP", "MRC", "OSPF", "Oracle")
MODES = {
    "blind": {},
    "congestion-aware": {"congestion_aware": True, "utilization_cap": 1.5},
}


def hexed(value):
    """``value`` with every float spelled by ``float.hex`` (nested tuples too)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(hexed(item) for item in value)
    return value


def record_hex(record):
    return {k: hexed(v) for k, v in dataclasses.asdict(record).items()}


def paper_inputs():
    topo = paper_figure_topology()
    flow_set = aggregate_flows(uniform_matrix(topo, total_demand=100.0), 10_000)
    scenarios = [
        FailureScenario.from_region(topo, PAPER_FAILURE_REGION),
        FailureScenario.from_region(topo, Circle(Point(300.0, 300.0), 120.0)),
        FailureScenario.from_nodes(topo, [10]),
    ]
    return topo, flow_set, scenarios


def as7018_inputs():
    topo = topology_from_spec("AS7018", seed=3)
    flow_set = aggregate_flows(generate_matrix(topo, "gravity", seed=3), 100_000)
    stream = circle_scenarios(topo, random.Random(11))
    return topo, flow_set, [next(stream) for _ in range(3)]


INPUTS = {"paper": paper_inputs, "AS7018": as7018_inputs}


def checked_penalty(monkeypatch):
    """Make the engine's live penalty compare itself to a rebuild after every group.

    The hook is a subclass swapped in for the name the engine builds its
    penalty through — ``src/`` carries no flag for it.  Returns the log of
    ``(is_null, lid array already built)`` per refresh, in order.
    """
    log = []

    class CheckedPenalty(LinkPenalty):
        def refresh(self, load_map, links):
            super().refresh(load_map, links)
            # RTRConfig's penalty defaults are LinkPenalty's own.
            fresh = LinkPenalty.from_load_map(load_map)
            assert self.units == fresh.units
            # Look, do not touch: calling lid_units() here would build the
            # array and hide a refresh that forgets an already built one.
            built = self._lid_cache is not None
            if built:
                assert self.lid_units(load_map.topo) == fresh.lid_units(load_map.topo)
            log.append((self.is_null(), built))

    monkeypatch.setattr("repro.traffic.engine.LinkPenalty", CheckedPenalty)
    return log


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("network", sorted(INPUTS))
def test_records_equal_reference_weighter(network, mode, monkeypatch):
    """3 scenarios x 5 schemes: every record field, ``float.hex`` for ``float.hex``."""
    topo, flow_set, scenarios = INPUTS[network]()
    engine = TrafficEngine(topo, flow_set, approaches=SCHEMES, **MODES[mode])
    spec = TrafficEngine(topo, flow_set, approaches=SCHEMES, **MODES[mode])
    refreshes = checked_penalty(monkeypatch)
    disrupted = 0
    groups = 0
    for index, scenario in enumerate(scenarios):
        got = engine.run_scenario(scenario, index)
        want = reference_run_scenario(spec, scenario, index)
        assert list(got) == list(want) == list(SCHEMES)
        for scheme in SCHEMES:
            assert record_hex(got[scheme]) == record_hex(want[scheme]), (
                f"{network}/{mode} scenario {index} {scheme}"
            )
        disrupted += got["RTR"].disrupted_pairs
        pairs = classify_pairs(topo, engine.routing, scenario, flow_set).disrupted
        groups += len({(p.initiator, p.destination) for p in pairs})
    assert disrupted > 0, "the parity test must weight something"
    # Only RTR takes a penalty: one refresh (and one rebuild check) per group.
    assert len(refreshes) == (groups if mode == "congestion-aware" else 0)
    assert any(built for _, built in refreshes) == (mode == "congestion-aware")


def test_live_penalty_from_a_blind_start(monkeypatch):
    """Null penalty first (nothing to steer around), then the first penalized link.

    With 40x headroom the intact background sits far below the first
    penalty bucket, so each window starts on the base metric with no lid
    array built; rerouted groups then pile onto survivors until a link
    crosses the bucket — the array is built by the next decision and has
    to follow every refresh from there on.
    """
    topo = grid_topology(6, 6)
    flow_set = aggregate_flows(uniform_matrix(topo, total_demand=100.0), 10_000)
    engine = TrafficEngine(
        topo, flow_set, approaches=("RTR",), congestion_aware=True, headroom=40.0
    )
    spec = TrafficEngine(
        topo, flow_set, approaches=("RTR",), congestion_aware=True, headroom=40.0
    )
    refreshes = checked_penalty(monkeypatch)
    scenario = FailureScenario.from_nodes(topo, [14, 15, 20, 21])
    got = engine.run_scenario(scenario)
    want = reference_run_scenario(spec, scenario)
    assert record_hex(got["RTR"]) == record_hex(want["RTR"])
    nulls = [null for null, _ in refreshes]
    assert nulls[0] and not nulls[-1], "blind start, penalized end"
    first = nulls.index(False)
    assert not any(built for _, built in refreshes[: first + 1])
    assert any(built for _, built in refreshes[first + 1 :])


def test_window_end_guard_refuses_a_penalty_that_stopped_following(monkeypatch):
    """The ``src/`` guard itself: a live penalty that drifts never reaches a record."""

    class Forgetful(LinkPenalty):
        def refresh(self, load_map, links):
            pass

    monkeypatch.setattr("repro.traffic.engine.LinkPenalty", Forgetful)
    topo, flow_set, scenarios = paper_inputs()
    engine = TrafficEngine(
        topo, flow_set, approaches=("RTR",), **MODES["congestion-aware"]
    )
    with pytest.raises(SimulationError, match=r"^live link penalty drifted at e\d+,\d+: "):
        engine.run_scenario(scenarios[0])


def test_classification_equals_local_view_reference():
    topo, flow_set, scenarios = as7018_inputs()
    engine = TrafficEngine(topo, flow_set, approaches=("RTR",))
    for scenario in scenarios:
        got = classify_pairs(topo, engine.routing, scenario, flow_set)
        assert got == reference_classify(engine, scenario)


def test_classification_on_failed_endpoints_and_a_disconnected_snapshot():
    """The branches the AS7018 circles never take, against the same reference.

    Node 15 of a 4x4 grid is cut off before any failure (a disconnected
    snapshot: its pairs have no default route at all), then routers 5 and
    6 fail — every pair sourced at one is lost with its source, every pair
    destined to one is stopped at the last live hop.
    """
    topo = grid_topology(4, 4)
    for neighbor in list(topo.neighbors(15)):
        topo.remove_link(15, neighbor)
    flow_set = aggregate_flows(uniform_matrix(topo, total_demand=240.0), 24_000)
    engine = TrafficEngine(topo, flow_set, approaches=("RTR",))
    scenario = FailureScenario.from_nodes(topo, [5, 6])
    got = classify_pairs(topo, engine.routing, scenario, flow_set)
    want = reference_classify(engine, scenario)
    assert got == want
    assert list(got.intact_by_destination) == list(want.intact_by_destination)
    assert got.unrouted_demand > 0.0
    assert got.failed_source_demand > 0.0 and got.failed_source_flows > 0
    to_failed = [p for p in got.disrupted if p.destination in (5, 6)]
    assert to_failed and all(p.initiator not in (5, 6) for p in to_failed)
    assert not any(p.source in (5, 6, 15) for p in got.disrupted)
    assert not any(d in (5, 6) for d in got.intact_by_destination)


@pytest.mark.parametrize("approaches", [("RTR",), ("RTR", "FCP"), SCHEMES])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_one_edge_loads_pass_per_intact_destination(monkeypatch, approaches, mode):
    """``edge_loads_to`` calls per window do not depend on ``len(approaches)``."""
    topo, flow_set, scenarios = paper_inputs()
    engine = TrafficEngine(topo, flow_set, approaches=approaches, **MODES[mode])
    calls = []
    original = RoutingTable.edge_loads_to

    def counting(self, destination, demands):
        calls.append(destination)
        return original(self, destination, demands)

    monkeypatch.setattr(RoutingTable, "edge_loads_to", counting)
    for scenario in scenarios:
        intact = classify_pairs(topo, engine.routing, scenario, flow_set).intact_by_destination
        assert intact, "every scenario must leave some pair intact"
        del calls[:]
        engine.run_scenario(scenario)
        assert calls == sorted(intact)


def test_plan_does_not_outlive_its_window():
    """Same (source, destination), different initiator, one engine: no stale prefix.

    On a 7-ring the pair (a, d) routes a-b-c-d; it is stopped at ``c``
    when link c-d fails and at ``a`` when link a-b fails, so its surviving
    prefix is two links in the first window and empty in the second.
    """
    topo = ring_topology(7)
    flow_set = aggregate_flows(uniform_matrix(topo, total_demand=50.0), 1_000)
    routing = RoutingTable(topo)
    a, d = 0, 3
    _, b, c, _ = routing.path(a, d).nodes
    windows = [
        FailureScenario.single_link(topo, Link.of(c, d)),
        FailureScenario.single_link(topo, Link.of(a, b)),
    ]
    initiators = []
    for scenario in windows:
        pairs = classify_pairs(topo, routing, scenario, flow_set).disrupted
        initiators.append({(p.source, p.destination): p.initiator for p in pairs}[(a, d)])
    assert initiators == [c, a]

    shared = TrafficEngine(topo, flow_set, approaches=("RTR", "OSPF"))
    for index, scenario in enumerate(windows):
        fresh = TrafficEngine(topo, flow_set, approaches=("RTR", "OSPF"))
        got = shared.run_scenario(scenario, index)
        want = fresh.run_scenario(scenario, index)
        for scheme in ("RTR", "OSPF"):
            assert record_hex(got[scheme]) == record_hex(want[scheme])
