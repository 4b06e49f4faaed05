"""Cross-protocol property-based tests on random worlds.

These go beyond the paper's theorems: invariants every recovery approach
must satisfy regardless of topology, costs, or failure shape.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schemes.fcp import FCP
from repro.schemes.mrc import MRC, generate_configurations
from repro.schemes.oracle import Oracle
from repro.core import RTR
from repro.failures import FailureScenario, LocalView, random_circle
from repro.routing import RoutingTable
from repro.topology import Link, Topology, geometric_isp

from ..conftest import random_polygon


def random_world(seed: int, weighted: bool = False):
    rng = random.Random(seed)
    n = rng.randrange(12, 32)
    m = rng.randrange(n - 1, min(n * (n - 1) // 2, 3 * n))
    topo = geometric_isp(n, m, rng)
    if weighted:
        # Rebuild with random (possibly asymmetric) positive costs.
        weighted_topo = Topology(topo.name + "-weighted")
        for node in topo.nodes():
            weighted_topo.add_node(node, topo.position(node))
        for link in topo.links():
            weighted_topo.add_link(
                link.u,
                link.v,
                cost=rng.uniform(1.0, 10.0),
                reverse_cost=rng.uniform(1.0, 10.0),
            )
        topo = weighted_topo
    scenario = FailureScenario.from_region(topo, random_circle(rng))
    return topo, scenario, rng


def failed_cases(topo, scenario, routing, limit=6):
    view = LocalView(scenario)
    out = []
    for initiator in sorted(scenario.live_nodes()):
        bad = set(view.unreachable_neighbors(initiator))
        if not bad:
            continue
        for destination in sorted(topo.nodes()):
            if destination == initiator:
                continue
            nh = routing.next_hop(initiator, destination)
            if nh in bad:
                out.append((initiator, destination, nh))
                if len(out) >= limit:
                    return out
    return out


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_rtr_theorem2_holds_with_weighted_asymmetric_costs(seed):
    """Theorem 2 is about costs, not hops: it must hold under arbitrary
    positive, asymmetric link costs (the §II-A generality)."""
    topo, scenario, _ = random_world(seed, weighted=True)
    if not scenario.failed_links:
        return
    routing = RoutingTable(topo)
    rtr = RTR(topo, scenario, routing=routing)
    oracle = Oracle(topo, scenario)
    for initiator, destination, trigger in failed_cases(topo, scenario, routing):
        result = rtr.recover(initiator, destination, trigger)
        if result.delivered:
            optimal = oracle.optimal_cost(initiator, destination)
            assert optimal is not None
            assert result.path.cost == pytest.approx(optimal)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_fcp_delivers_exactly_the_recoverable(seed):
    """FCP's completeness: delivered <=> destination reachable in G-E2."""
    topo, scenario, _ = random_world(seed)
    if not scenario.failed_links:
        return
    routing = RoutingTable(topo)
    fcp = FCP(topo, scenario, routing=routing)
    oracle = Oracle(topo, scenario)
    for initiator, destination, trigger in failed_cases(topo, scenario, routing):
        result = fcp.recover(initiator, destination, trigger)
        assert result.delivered == oracle.is_recoverable(initiator, destination)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_delivered_paths_use_only_live_elements(seed):
    """No approach may route a delivered packet over a failed element."""
    topo, scenario, _ = random_world(seed)
    if not scenario.failed_links:
        return
    routing = RoutingTable(topo)
    protocols = [
        RTR(topo, scenario, routing=routing),
        FCP(topo, scenario, routing=routing),
    ]
    for initiator, destination, trigger in failed_cases(topo, scenario, routing):
        for protocol in protocols:
            result = protocol.recover(initiator, destination, trigger)
            if not result.delivered:
                continue
            nodes = list(result.path.nodes)
            for node in nodes:
                assert scenario.is_node_live(node)
            for a, b in zip(nodes[:-1], nodes[1:]):
                assert scenario.is_link_live(Link.of(a, b))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_mrc_forwarding_terminates(seed):
    """MRC forwarding never loops forever: every case delivers or drops."""
    topo, scenario, _ = random_world(seed)
    if not scenario.failed_links:
        return
    routing = RoutingTable(topo)
    configs = generate_configurations(topo, seed=0)
    mrc = MRC(topo, scenario, configurations=configs, routing=routing)
    oracle = Oracle(topo, scenario)
    for initiator, destination, trigger in failed_cases(topo, scenario, routing):
        result = mrc.recover(initiator, destination, trigger)
        if result.delivered:
            # Delivered implies genuinely reachable and the path is real.
            assert oracle.is_recoverable(initiator, destination)
            assert result.path.nodes[-1] == destination


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_polygon_failure_areas_behave_like_circles(seed):
    """The arbitrary-shape claim (§II-A): RTR's guarantees are
    shape-independent, so polygonal areas must preserve Theorems 1-2."""
    rng = random.Random(seed)
    n = rng.randrange(12, 30)
    m = rng.randrange(n - 1, min(n * (n - 1) // 2, 3 * n))
    topo = geometric_isp(n, m, rng)
    scenario = FailureScenario.from_region(
        topo, random_polygon(rng, mean_radius=rng.uniform(100, 300))
    )
    if not scenario.failed_links:
        return
    routing = RoutingTable(topo)
    rtr = RTR(topo, scenario, routing=routing)
    oracle = Oracle(topo, scenario)
    for initiator, destination, trigger in failed_cases(topo, scenario, routing):
        result = rtr.recover(initiator, destination, trigger)
        phase1 = rtr.phase1_for(initiator, trigger)
        assert phase1.walk[0] == phase1.walk[-1] == initiator  # Theorem 1
        if result.delivered:
            assert result.path.cost == pytest.approx(
                oracle.optimal_cost(initiator, destination)
            )  # Theorem 2
