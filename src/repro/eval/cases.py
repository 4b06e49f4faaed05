"""Test-case generation (§IV-A).

A test case is determined by three factors: the recovery initiator, the
destination, and the failure area.  Failed routing paths with a failed
source are ignored; paths sharing (initiator, destination, area) collapse
into one case.  Cases are *recoverable* when the destination is still
reachable from the initiator in ``G - E2`` and *irrecoverable* otherwise
(destination failed or partitioned away).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .. import obs
from ..baselines import Oracle
from ..errors import SimulationError
from ..failures import (
    PAPER_RADIUS_RANGE,
    FailureScenario,
    LocalView,
    random_circle,
)
from ..routing import RoutingTable, SPTCache
from ..topology import Topology


@dataclass(frozen=True)
class TestCase:
    """One (initiator, destination, failure-area) recovery test case."""

    scenario_index: int
    initiator: int
    destination: int
    #: The unreachable default next hop that triggers recovery.
    trigger: int
    #: Whether the destination is reachable from the initiator in G - E2.
    recoverable: bool
    #: Ground-truth optimal recovery cost (None when irrecoverable).
    optimal_cost: Optional[float]


@dataclass
class CaseSet:
    """Test cases grouped with the failure scenarios that produced them."""

    topo: Topology
    routing: RoutingTable
    scenarios: List[FailureScenario] = field(default_factory=list)
    cases: List[TestCase] = field(default_factory=list)

    def recoverable_cases(self) -> List[TestCase]:
        """Cases whose destination is reachable (§IV-C's population)."""
        return [c for c in self.cases if c.recoverable]

    def irrecoverable_cases(self) -> List[TestCase]:
        """Cases whose destination is unreachable (§IV-D's population)."""
        return [c for c in self.cases if not c.recoverable]

    def by_scenario(self) -> Dict[int, List[TestCase]]:
        """Cases keyed by their scenario index."""
        grouped: Dict[int, List[TestCase]] = {}
        for case in self.cases:
            grouped.setdefault(case.scenario_index, []).append(case)
        return grouped


def enumerate_scenario_cases(
    topo: Topology,
    routing: RoutingTable,
    scenario: FailureScenario,
    scenario_index: int = 0,
    cache: Optional[SPTCache] = None,
) -> Iterator[TestCase]:
    """All distinct test cases of one failure scenario.

    A live router with at least one unreachable neighbor is a potential
    initiator; it initiates recovery for exactly the destinations whose
    default next hop became unreachable.  Destinations include failed
    routers — the initiator cannot know they are gone, and such cases are
    the irrecoverable ones §II-C cares about.
    """
    view = LocalView(scenario)
    oracle = Oracle(topo, scenario, cache=cache)
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
            optimal = oracle.optimal_cost(initiator, destination)
            yield TestCase(
                scenario_index=scenario_index,
                initiator=initiator,
                destination=destination,
                trigger=next_hop,
                recoverable=optimal is not None,
                optimal_cost=optimal,
            )


def count_failed_routing_paths(
    topo: Topology,
    routing: RoutingTable,
    scenario: FailureScenario,
) -> Tuple[int, int]:
    """(recoverable, irrecoverable) counts over *failed routing paths*.

    Fig. 11 counts source-destination pairs, not deduplicated test cases: a
    path fails when it contains a failed node or link and its source is
    live; it is irrecoverable when the destination is unreachable from the
    source in ``G - E2``.  Per-destination memoization keeps this O(n) per
    destination: a node's path fails iff its next hop is unreachable or the
    next hop's path fails.
    """
    live = scenario.live_nodes()
    # Live components for reachability classification.
    component: Dict[int, int] = {}
    comp_id = 0
    excluded_links = set(scenario.failed_links)
    for node in live:
        if node in component:
            continue
        members = topo.component_of(
            node,
            excluded_nodes=set(scenario.failed_nodes),
            excluded_links=excluded_links,
        )
        for member in members:
            component[member] = comp_id
        comp_id += 1

    view = LocalView(scenario)
    recoverable = 0
    irrecoverable = 0
    for destination in topo.nodes():
        tree = routing.tree_to(destination)
        # ok[v]: the pre-failure path v -> destination survived intact.
        ok: Dict[int, bool] = {destination: scenario.is_node_live(destination)}
        for source in live:
            if source == destination or not tree.reaches(source):
                continue
            # Walk next hops until a cached verdict or a failed hop.  Every
            # node on the chain is live: we only advance over reachable
            # hops, and a reachable neighbor is by definition live.
            chain = []
            node = source
            verdict: Optional[bool] = None
            while verdict is None:
                cached = ok.get(node)
                if cached is not None:
                    verdict = cached
                    break
                chain.append(node)
                nxt = tree.next_hop(node)
                if not view.is_neighbor_reachable(node, nxt):
                    verdict = False
                    break
                node = nxt
            for visited in chain:
                ok[visited] = verdict
            if not ok.get(source, True):
                # A failed routing path with a live source.
                same_component = (
                    destination in component
                    and component.get(source) == component.get(destination)
                )
                if same_component:
                    recoverable += 1
                else:
                    irrecoverable += 1
    return recoverable, irrecoverable


def generate_cases(
    topo: Topology,
    rng: random.Random,
    n_recoverable: int,
    n_irrecoverable: int,
    radius_range: Tuple[float, float] = PAPER_RADIUS_RANGE,
    routing: Optional[RoutingTable] = None,
    max_scenarios: int = 100_000,
    cache: Optional[SPTCache] = None,
) -> CaseSet:
    """Generate failure areas until both case quotas are met (§IV-A).

    Mirrors the paper's setup: random circles, all resulting distinct test
    cases collected, until ``n_recoverable`` recoverable and
    ``n_irrecoverable`` irrecoverable cases exist — the last area's cases
    are classified only up to the one that fills the quotas.  ``cache``
    (optional) shares oracle/routing trees with the rest of a sweep.
    Raises :class:`SimulationError` when ``max_scenarios`` areas do not
    meet the quotas (a short set would silently thin a table row).
    """
    routing = routing if routing is not None else RoutingTable(topo, cache=cache)
    case_set = CaseSet(topo=topo, routing=routing)
    got_rec = 0
    got_irr = 0
    enumerated = 0
    for _ in range(max_scenarios):
        if got_rec >= n_recoverable and got_irr >= n_irrecoverable:
            break
        scenario = FailureScenario.from_region(
            topo, random_circle(rng, radius_range)
        )
        if not scenario.failed_links:
            continue
        index = len(case_set.scenarios)
        scenario_used = False
        for case in enumerate_scenario_cases(topo, routing, scenario, index, cache):
            enumerated += 1
            if case.recoverable:
                if got_rec >= n_recoverable:
                    continue
                got_rec += 1
            else:
                if got_irr >= n_irrecoverable:
                    continue
                got_irr += 1
            case_set.cases.append(case)
            scenario_used = True
            if got_rec >= n_recoverable and got_irr >= n_irrecoverable:
                break
        if scenario_used:
            case_set.scenarios.append(scenario)
        # An unused scenario would leave a hole in the index sequence;
        # drop it entirely instead.
    obs.inc("eval.case_gen.enumerated", enumerated)  # classifier attempts
    obs.inc("eval.case_gen.kept", len(case_set.cases))  # ... and useful ones
    if got_rec < n_recoverable or got_irr < n_irrecoverable:
        raise SimulationError(
            f"generate_cases: asked for {n_recoverable} recoverable / "
            f"{n_irrecoverable} irrecoverable cases, got {got_rec} / {got_irr} "
            f"after {max_scenarios} failure areas"
        )
    return case_set
