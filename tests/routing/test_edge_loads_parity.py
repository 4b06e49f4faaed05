"""``RoutingTable.edge_loads_to`` against its executable spec.

The library sorts the flow-carrying nodes once and keys its result by
link id; ``reference_edge_loads`` keeps the max-distance heap it replaced
and names every link by ``Link.of``.  Equal means equal: the same links
in the same key order, every load ``float.hex`` for ``float.hex`` — the
result feeds ``LinkLoadMap.merge_loads`` and, through it, every published
utilization figure.
"""

import random

import pytest

from repro.failures import circle_scenarios
from repro.routing import RoutingTable
from repro.topology import grid_topology, npcsr, topology_from_spec
from repro.topology.examples import paper_figure_topology
from repro.traffic import (
    aggregate_flows,
    classify_pairs,
    generate_matrix,
    uniform_matrix,
)

from .reference_edge_loads import reference_edge_loads_to


def assert_same_loads(routing, destination, demands):
    """Compare on ``Link`` keys; returns the library's loads keyed by link."""
    want = reference_edge_loads_to(routing, destination, demands)
    links = routing.topo.csr().links
    got = {links[lid]: load for lid, load in routing.edge_loads_to(destination, demands).items()}
    assert [(link, load.hex()) for link, load in got.items()] == [
        (link, load.hex()) for link, load in want.items()
    ], f"destination {destination}"
    return got


def demands_by_destination(matrix):
    by_destination = {}
    for (source, destination), demand in matrix.items():
        by_destination.setdefault(destination, {})[source] = demand
    return by_destination


def test_paper_topology_all_destinations():
    topo = paper_figure_topology()
    routing = RoutingTable(topo)
    by_destination = demands_by_destination(uniform_matrix(topo, total_demand=100.0))
    assert sorted(by_destination) == sorted(topo.nodes())
    for destination in sorted(by_destination):
        assert assert_same_loads(routing, destination, by_destination[destination])


def test_as7018_full_demand_and_post_failure_intact_subsets():
    topo = topology_from_spec("AS7018", seed=3)
    matrix = generate_matrix(topo, "gravity", seed=3)
    routing = RoutingTable(topo)
    by_destination = demands_by_destination(matrix)
    assert sorted(by_destination) == sorted(topo.nodes())
    for destination in sorted(by_destination):
        assert assert_same_loads(routing, destination, by_destination[destination])

    flow_set = aggregate_flows(matrix, 100_000)
    stream = circle_scenarios(topo, random.Random(11))
    for _ in range(3):
        intact = classify_pairs(topo, routing, next(stream), flow_set).intact_by_destination
        assert intact, "every scenario must leave some pair intact"
        for destination in sorted(intact):
            assert_same_loads(routing, destination, intact[destination])


def test_sparse_sources_on_a_large_grid():
    """The at-scale regime: 5 sources touch a sliver of a 900-node tree."""
    topo = grid_topology(30, 30)
    routing = RoutingTable(topo)
    rng = random.Random(5)
    for destination in (0, 449, 899):
        sources = rng.sample([n for n in topo.nodes() if n != destination], 5)
        demands = {source: rng.uniform(0.1, 9.0) for source in sources}
        loads = assert_same_loads(routing, destination, demands)
        assert 0 < len(loads) < 5 * 58  # at most five 58-hop corner-to-corner chains


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_array_backed_trees(kernel_backend, backend):
    """Both kernels' trees, on a sampled-demand graph past the numpy threshold.

    The numpy kernels hand out array-backed trees: the reference reads
    them through point queries, ``edge_loads_to`` through ``.dist`` /
    ``.parent``, which builds the dicts in id order rather than settle
    order.  The ``(-distance, id)`` sweep must not care.
    """
    if backend == "numpy" and npcsr.numpy_or_none() is None:
        pytest.skip("numpy not installed")
    kernel_backend.use(backend)
    topo = topology_from_spec("scale:1500", seed=2)
    routing = RoutingTable(topo)
    by_destination = demands_by_destination(generate_matrix(topo, "gravity", seed=2))
    for destination in sorted(by_destination)[:6]:
        array_backed = routing.tree_to(destination)._arrays is not None
        assert array_backed == (backend == "numpy")
        assert assert_same_loads(routing, destination, by_destination[destination])


@pytest.mark.parametrize(
    "demands",
    [
        {},
        {0: 4.0},  # source == destination
        {3: 0.0, 7: -2.5},  # nothing to route
        {0: 4.0, 3: 0.0, 7: -2.5, 12: 1.25, 24: 0.1},  # mixed: only 12 and 24 count
    ],
)
def test_demands_that_do_not_route(demands):
    loads = assert_same_loads(RoutingTable(grid_topology(5, 5)), 0, demands)
    assert bool(loads) == any(d > 0.0 and s != 0 for s, d in demands.items())


def test_unreachable_sources_are_skipped():
    topo = grid_topology(4, 4)
    for neighbor in list(topo.neighbors(15)):
        topo.remove_link(15, neighbor)
    routing = RoutingTable(topo)
    loads = assert_same_loads(routing, 0, {15: 3.0, 10: 2.0, 5: 1.0})
    assert loads and all(15 not in link for link in loads)
    assert assert_same_loads(routing, 15, {0: 1.0, 10: 2.0}) == {}
