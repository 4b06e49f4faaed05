"""Test-only reference case generator — the executable spec of ``generate_cases``.

This is the algorithm :mod:`repro.eval.cases` ran before classification
became quota-bounded, kept verbatim in spirit: **every case of every
drawn failure area is classified, and the quotas filter afterwards**.
Each classification is its own oracle query from set-typed exclusions —
fresh ``set`` copies of ``E2``, one ``shortest_path_or_none`` per
(initiator, destination), a :class:`~repro.routing.Path` built just to
read its cost — through a private cache, so nothing is shared with the
code under test.

It cannot stop early, reuse a tree it was not handed, or skip a mask, so
it cannot drift; ``test_case_generation_parity.py`` requires the
production generator to return the same scenarios and the same cases
(``optimal_cost`` compared by ``float.hex``) and to leave the RNG in the
same state.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.eval.cases import CaseSet, TestCase
from repro.failures import PAPER_RADIUS_RANGE, FailureScenario, LocalView, random_circle
from repro.routing import RoutingTable, SPTCache
from repro.topology import Topology


def reference_optimal_cost(
    topo: Topology,
    scenario: FailureScenario,
    cache: SPTCache,
    initiator: int,
    destination: int,
) -> Optional[float]:
    """One point query in ``G - E2`` from freshly copied exclusion sets."""
    excluded_nodes = set(scenario.failed_nodes)
    excluded_links = set(scenario.failed_links)
    if destination in excluded_nodes or initiator in excluded_nodes:
        return None
    path = cache.shortest_path_or_none(
        topo,
        initiator,
        destination,
        excluded_nodes=excluded_nodes,
        excluded_links=excluded_links,
    )
    return path.cost if path is not None else None


def reference_enumerate(
    topo: Topology,
    routing: RoutingTable,
    scenario: FailureScenario,
    scenario_index: int,
    cache: SPTCache,
) -> List[TestCase]:
    """Every distinct test case of one scenario, all of them classified."""
    view = LocalView(scenario)
    cases: List[TestCase] = []
    for initiator in scenario.live_nodes():
        unreachable = set(view.unreachable_neighbors(initiator))
        if not unreachable:
            continue
        for destination in topo.nodes():
            if destination == initiator:
                continue
            next_hop = routing.next_hop(initiator, destination)
            if next_hop is None or next_hop not in unreachable:
                continue
            optimal = reference_optimal_cost(
                topo, scenario, cache, initiator, destination
            )
            cases.append(
                TestCase(
                    scenario_index=scenario_index,
                    initiator=initiator,
                    destination=destination,
                    trigger=next_hop,
                    recoverable=optimal is not None,
                    optimal_cost=optimal,
                )
            )
    return cases


def reference_generate_cases(
    topo: Topology,
    rng: random.Random,
    n_recoverable: int,
    n_irrecoverable: int,
    radius_range: Tuple[float, float] = PAPER_RADIUS_RANGE,
    max_scenarios: int = 100_000,
) -> CaseSet:
    """§IV-A with the filter *after* the enumeration (short sets allowed)."""
    routing = RoutingTable(topo)
    cache = SPTCache()
    case_set = CaseSet(topo=topo, routing=routing)
    got_rec = 0
    got_irr = 0
    for _ in range(max_scenarios):
        if got_rec >= n_recoverable and got_irr >= n_irrecoverable:
            break
        scenario = FailureScenario.from_region(topo, random_circle(rng, radius_range))
        if not scenario.failed_links:
            continue
        index = len(case_set.scenarios)
        kept: List[TestCase] = []
        for case in reference_enumerate(topo, routing, scenario, index, cache):
            if case.recoverable and got_rec < n_recoverable:
                got_rec += 1
                kept.append(case)
            elif not case.recoverable and got_irr < n_irrecoverable:
                got_irr += 1
                kept.append(case)
        if kept:
            case_set.cases.extend(kept)
            case_set.scenarios.append(scenario)
    return case_set
