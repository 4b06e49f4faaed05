"""Theorem 1's hop bound on the ISP catalog (satellite of the chaos PR).

The hypothesis tests in test_theorems.py exercise the bound on random
geometric graphs; this property-style sweep pins it on seeded builds of
the paper's Rocketfuel-style ISP profiles, where the degree distribution
and geography are closest to the evaluation of §IV: every phase-1 walk is
bounded by twice the link count (each link traversed at most once per
direction).
"""

import random

import pytest

from repro.core import RTR
from repro.failures import FailureScenario, LocalView, random_circle
from repro.topology import isp_catalog


def failed_cases(topo, scenario, limit):
    from repro.routing import RoutingTable

    routing = RoutingTable(topo)
    view = LocalView(scenario)
    out = []
    for initiator in sorted(scenario.live_nodes()):
        unreachable = set(view.unreachable_neighbors(initiator))
        if not unreachable:
            continue
        for destination in sorted(topo.nodes()):
            if destination == initiator:
                continue
            nh = routing.next_hop(initiator, destination)
            if nh in unreachable:
                out.append((initiator, destination, nh))
                if len(out) >= limit:
                    return out
    return out


@pytest.mark.parametrize("name", ["AS1239", "AS209", "AS4323"])
@pytest.mark.parametrize("circle_seed", [1, 7, 23, 91])
def test_walk_bounded_on_isp_topologies(name, circle_seed):
    topo = isp_catalog.build(name, seed=0)
    rng = random.Random(circle_seed)
    scenario = FailureScenario.from_region(topo, random_circle(rng))
    while not scenario.failed_links:
        scenario = FailureScenario.from_region(topo, random_circle(rng))
    rtr = RTR(topo, scenario)
    cases = failed_cases(topo, scenario, limit=6)
    assert cases, "a link-cutting failure must break some default path"
    for initiator, _destination, trigger in cases:
        phase1 = rtr.phase1_for(initiator, trigger)
        assert phase1.hops <= 2 * topo.link_count
        assert phase1.walk[0] == initiator
        assert phase1.walk[-1] == initiator
