"""``classify_pairs`` against its executable spec, and its demand index's lifetime.

``classify_pairs`` labels the preorder ranges below each destination's
cut tree edges in a :class:`~repro.traffic.engine.DemandIndex`;
``reference_classify`` walks every source's next-hop chain through
``LocalView`` probes.  Every field must agree: the disrupted pairs in
order, each destination's intact keys in order, and every sum by
``float.hex``.
"""

import random

import pytest

from repro import obs
from repro.eval.experiments import traffic_scenario_list
from repro.failures import FailureScenario, circle_scenarios
from repro.routing import RoutingTable, dijkstra_run_count, kernels
from repro.topology import Link, grid_topology, npcsr, topology_from_spec
from repro.topology.examples import PAPER_FAILURE_REGION, paper_figure_topology
from repro.traffic import (
    TrafficEngine,
    TrafficMatrix,
    aggregate_flows,
    classify_pairs,
    generate_matrix,
    gravity_matrix,
    provision_capacities,
    uniform_matrix,
)
from repro.traffic.engine import demand_index

from .reference_weighter import (
    classification_fields,
    reference_classify,
    reference_run_scenario,
)
from .test_window_plan import record_hex


def assert_matches_reference(engine, scenario):
    got = classify_pairs(engine.topo, engine.routing, scenario, engine.flow_set)
    want = reference_classify(engine, scenario)
    assert classification_fields(got) == classification_fields(want)
    return got


def test_as7018_traffic_areas():
    """Every third router sources traffic, so chains also pass through non-sources."""
    topo = topology_from_spec("AS7018", seed=0)
    sources = set(sorted(topo.nodes())[::3])
    gravity = generate_matrix(topo, "gravity", seed=0)
    matrix = TrafficMatrix({pair: d for pair, d in gravity.items() if pair[0] in sources})
    flow_set = aggregate_flows(matrix, 100_000)
    engine = TrafficEngine(topo, flow_set, approaches=("RTR",))
    scenarios = traffic_scenario_list(topo, 0, 36)
    assert len(scenarios) == 36
    failed_destinations = 0
    for scenario in scenarios:
        got = assert_matches_reference(engine, scenario)
        failed_destinations += any(p.destination in scenario.failed_nodes for p in got.disrupted)
    assert failed_destinations > 0


def test_random_three_router_failures_with_a_failed_destination():
    topo = grid_topology(6, 6)
    flow_set = aggregate_flows(gravity_matrix(topo, seed=4), 50_000)
    engine = TrafficEngine(topo, flow_set, approaches=("RTR",))
    destinations = sorted({batch.destination for batch in flow_set.batches()})
    rng = random.Random(7)
    for _ in range(15):
        target = rng.choice(destinations)
        others = rng.sample([n for n in sorted(topo.nodes()) if n != target], 2)
        scenario = FailureScenario(topo, failed_nodes=[target, *others])
        got = assert_matches_reference(engine, scenario)
        stopped = [p for p in got.disrupted if p.destination == target]
        assert stopped and all(p.initiator != target for p in stopped)
        assert target not in got.intact_by_destination


def test_two_failed_links_on_one_chain_nest_their_cuts():
    """The deeper cut initiates for the sources below it, the upper one above."""
    topo = grid_topology(6, 6)
    flow_set = aggregate_flows(uniform_matrix(topo, total_demand=100.0), 10_000)
    engine = TrafficEngine(topo, flow_set, approaches=("RTR",))
    source, destination = 0, 35
    chain = engine.routing.path(source, destination).nodes
    assert len(chain) >= 8
    lower, upper = chain[1], chain[5]  # the cut nodes, source side first
    scenario = FailureScenario(
        topo,
        failed_links=[Link.of(lower, chain[2]), Link.of(upper, chain[6])],
    )
    got = assert_matches_reference(engine, scenario)
    initiator = {p.source: p.initiator for p in got.disrupted if p.destination == destination}
    assert initiator[source] == initiator[lower] == lower
    assert initiator[chain[2]] == initiator[upper] == upper


def test_failed_source_the_tree_does_not_reach():
    """Node 15 is cut off before the failure, then fails: lost, not unrouted."""
    topo = grid_topology(4, 4)
    for neighbor in list(topo.neighbors(15)):
        topo.remove_link(15, neighbor)
    flow_set = aggregate_flows(uniform_matrix(topo, total_demand=240.0), 24_000)
    engine = TrafficEngine(topo, flow_set, approaches=("RTR",))
    alive = FailureScenario(topo, failed_nodes=[5])
    dead = FailureScenario(topo, failed_nodes=[5, 15])
    before = assert_matches_reference(engine, alive)
    after = assert_matches_reference(engine, dead)
    from_15 = [b for b in flow_set.batches() if b.source == 15]
    assert after.failed_source_flows == before.failed_source_flows + sum(b.flows for b in from_15)
    assert after.unrouted_demand < before.unrouted_demand


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_scale_sampled_demand(kernel_backend, backend):
    if backend == "numpy" and npcsr.numpy_or_none() is None:
        pytest.skip("numpy not installed")
    kernel_backend.use(backend)
    topo = topology_from_spec("scale:1500", seed=3)
    flow_set = aggregate_flows(generate_matrix(topo, "gravity", seed=3), 100_000)
    engine = TrafficEngine(topo, flow_set, approaches=("RTR",), provision=False)
    stream = circle_scenarios(topo, random.Random(11), radius_range=(10.0, 60.0))
    disrupted = 0
    for scenario in [next(stream) for _ in range(4)]:
        disrupted += len(assert_matches_reference(engine, scenario).disrupted)
    assert disrupted > 0
    parent = next(iter(flow_set.demand_index.rooted.values())).parent
    assert isinstance(parent, memoryview) == (backend == "numpy")


def test_demand_index_is_built_once_per_table_and_view(obs_on):
    """Windows and candidates share one index; a new table or CSR view builds another."""

    def builds():
        return obs.snapshot()["metrics"]["counters"].get("traffic.demand_index.builds", 0)

    topo = paper_figure_topology()
    flow_set = aggregate_flows(uniform_matrix(topo, total_demand=100.0), 10_000)
    engine = TrafficEngine(topo, flow_set, approaches=("RTR", "OSPF"))
    scenarios = [
        FailureScenario.from_region(topo, PAPER_FAILURE_REGION),
        FailureScenario(topo, failed_nodes=[10]),
    ]

    def assert_windows_match(engine):
        for index, scenario in enumerate(scenarios):
            assert_matches_reference(engine, scenario)
            got = engine.run_scenario(scenario, index)
            want = reference_run_scenario(engine, scenario, index)
            for scheme in engine.approaches:
                assert record_hex(got[scheme]) == record_hex(want[scheme])

    assert builds() == 0
    assert_windows_match(engine)
    assert_windows_match(engine)
    assert builds() == 1

    other = RoutingTable(topo)
    for scenario in scenarios:
        got = classify_pairs(topo, other, scenario, flow_set)
        want = reference_classify(engine, scenario)
        assert classification_fields(got) == classification_fields(want)
    assert builds() == 2
    assert_matches_reference(engine, scenarios[0])  # the index follows the table
    assert builds() == 3

    # Re-adding a link installs a new CSR view and gives the link a new id.
    link = topo.csr().links[topo.csr().pair_lid[(11, 12)]]
    cost = topo.cost(link.u, link.v)
    topo.remove_link(link.u, link.v)
    topo.add_link(link.u, link.v, cost)
    provision_capacities(topo, flow_set.matrix, engine.routing)
    scenarios = [FailureScenario.from_region(topo, PAPER_FAILURE_REGION)]
    assert_windows_match(engine)
    assert builds() == 4


def test_demand_index_reuses_the_provisioning_trees():
    """Provisioning builds every destination's tree; the index build computes none."""
    topo = topology_from_spec("AS7018", seed=0)
    matrix = generate_matrix(topo, "gravity", seed=0)
    flow_set = aggregate_flows(matrix, 10_000)
    routing = RoutingTable(topo)
    runs = dijkstra_run_count()
    provision_capacities(topo, matrix, routing)
    assert dijkstra_run_count() > runs
    before = dijkstra_run_count(), kernels.numpy_run_count()
    index = demand_index(topo, routing, flow_set)
    assert (dijkstra_run_count(), kernels.numpy_run_count()) == before
    assert set(index.rooted) == {batch.destination for batch in flow_set.batches()}
