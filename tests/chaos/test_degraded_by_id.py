"""The degraded view's by-id probe against its detection rules.

:class:`~repro.chaos.degraded.DegradedLocalView` overrides only
``link_reachable(node, neighbor, lid)`` for reachability;
``is_neighbor_reachable`` reaches it through the base view, and
``unreachable_neighbors`` and ``failed_lids`` probe it uncached.  Every
directed adjacency must read the same through all four and through the rules
written out here — flapped links down, truly live links up, missed
failures up, delayed failures up until the hop clock reaches the delay —
before the delay runs out, after it and after secondary failures flap.
"""

from __future__ import annotations

import random

import pytest

from repro.chaos import ChaosRuntime, DegradedLocalView, FaultPlan
from repro.chaos.plan import SecondaryFailure
from repro.failures import LocalView, circle_scenarios
from repro.topology import isp_catalog


def expected_reachable(view, truth, node, neighbor, lid):
    if lid in view.runtime.flapped_lids:
        return False
    if truth.is_neighbor_reachable(node, neighbor):
        return True
    if (node, neighbor) in view.missed:
        return True
    return (node, neighbor) in view.delayed and (
        view.runtime.hops < view.plan.detection_delay_hops
    )


def assert_view_matches_rules(view, truth):
    csr = view.topo.csr()
    for node in view.topo.nodes():
        unreachable = []
        for neighbor in view.topo.neighbors(node):
            lid = csr.pair_lid[(node, neighbor)]
            reachable = view.link_reachable(node, neighbor, lid)
            assert reachable == view.is_neighbor_reachable(node, neighbor)
            assert reachable == expected_reachable(view, truth, node, neighbor, lid)
            if not reachable:
                unreachable.append(neighbor)
        assert view.unreachable_neighbors(node) == unreachable
        assert view.failed_lids(node) == tuple(
            csr.pair_lid[(node, neighbor)] for neighbor in unreachable
        )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_missed_delayed_and_flapped_links_read_alike(seed):
    topo = isp_catalog.build("AS7018", seed=0)
    scenario = next(iter(circle_scenarios(topo, random.Random(seed))))
    live = [
        link
        for link in topo.links()
        if scenario.is_node_live(link.u) and scenario.is_node_live(link.v)
        and link not in scenario.failed_links
    ]
    flaps = random.Random(seed).sample(live, 3)
    plan = FaultPlan(
        seed=seed,
        detection_miss_rate=0.3,
        detection_delay_rate=0.3,
        detection_delay_hops=4,
        secondary_failures=tuple(
            SecondaryFailure(at_hop=hop, link=(link.u, link.v))
            for hop, link in zip((2, 5, 7), flaps)
        ),
    )
    view = DegradedLocalView(scenario, plan, ChaosRuntime(plan, scenario))
    truth = LocalView(scenario)
    assert view.missed and view.delayed
    for _ in range(8):  # before the delay, after it, and past every flap
        assert_view_matches_rules(view, truth)
        view.runtime.on_hop()
    assert len(view.runtime.flapped_lids) == 3
    assert_view_matches_rules(view, truth)
