"""The per-window demand-weighting plan against its executable spec.

``reference_weighter`` rebuilds every load from scratch per approach;
the engine shares one scheme-independent plan per window.  These tests
pin that the sharing is invisible (bit-identical records), that it
happens (one ``edge_loads_to`` pass per intact destination, however many
schemes), and that the plan cannot leak between windows.
"""

import dataclasses
import random

import pytest

from repro.failures import FailureScenario, circle_scenarios
from repro.geometry import Circle, Point
from repro.routing import RoutingTable
from repro.topology import Link, ring_topology, topology_from_spec
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


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("network", sorted(INPUTS))
def test_records_equal_reference_weighter(network, mode):
    """3 scenarios x 5 schemes: every record field, ``float.hex`` for ``float.hex``."""
    topo, flow_set, scenarios = INPUTS[network]()
    engine = TrafficEngine(topo, flow_set, approaches=SCHEMES, **MODES[mode])
    spec = TrafficEngine(topo, flow_set, approaches=SCHEMES, **MODES[mode])
    disrupted = 0
    for index, scenario in enumerate(scenarios):
        got = engine.run_scenario(scenario, index)
        want = reference_run_scenario(spec, scenario, index)
        assert list(got) == list(want) == list(SCHEMES)
        for scheme in SCHEMES:
            assert record_hex(got[scheme]) == record_hex(want[scheme]), (
                f"{network}/{mode} scenario {index} {scheme}"
            )
        disrupted += got["RTR"].disrupted_pairs
    assert disrupted > 0, "the parity test must weight something"


def test_classification_equals_local_view_reference():
    topo, flow_set, scenarios = as7018_inputs()
    engine = TrafficEngine(topo, flow_set, approaches=("RTR",))
    for scenario in scenarios:
        got = classify_pairs(topo, engine.routing, scenario, flow_set)
        assert got == reference_classify(engine, scenario)


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
