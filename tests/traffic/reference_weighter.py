"""Test-only reference demand weighter — the executable spec of the engine.

This is the algorithm :class:`repro.traffic.TrafficEngine` ran before it
grew a per-window plan, kept verbatim in spirit: **every approach
rebuilds every load from scratch**.  The intact background map is
recomputed per approach (one ``edge_loads_to`` pass per surviving
destination, per approach), surviving prefixes are re-walked hop by hop
through ``tree.next_hop`` for the load pass and again for the overload
attribution, and pair classification probes every hop through
:class:`~repro.failures.LocalView`.

Nothing here is shared between approaches, so it cannot go stale and it
cannot reorder a float sum; ``test_window_plan.py`` requires the engine's
records to equal these ``float.hex`` for ``float.hex``.  It deliberately
uses the engine only for its *inputs* (topology, routing table, flow
set, runner) — never its classification, grouping or weighting code,
and runs its congestion-aware cases on a fresh scheme instance each,
built with a fresh ``LinkPenalty`` of the loads routed so far.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.schemes.oracle import Oracle
from repro.eval.cases import CaseSet, TestCase
from repro.eval.metrics import CaseRecord
from repro.failures import FailureScenario, LocalView
from repro.te.metrics import overload_attribution
from repro.te.penalty import LinkPenalty
from repro.topology import Link
from repro.traffic import TrafficEngine
from repro.traffic.capacity import LinkLoadMap
from repro.traffic.engine import DisruptedPair, PairClassification
from repro.traffic.metrics import TrafficScenarioRecord

from . import reference_loads

Groups = Dict[Tuple[int, int], List[DisruptedPair]]


def reference_classify(engine: TrafficEngine, scenario: FailureScenario) -> PairClassification:
    """Pair classification with one ``LocalView`` probe per hop.

    The memoized next-hop chain walk per source, the spec of
    ``classify_pairs``'s cut-subtree labelling.
    """
    view = LocalView(scenario)
    routing = engine.routing
    disrupted: List[DisruptedPair] = []
    intact: Dict[int, Dict[int, float]] = {}
    failed_demand: List[float] = []
    failed_flows = 0
    unrouted: List[float] = []
    by_destination: Dict[int, List] = {}
    for batch in engine.flow_set.batches():
        by_destination.setdefault(batch.destination, []).append(batch)
    for destination in sorted(by_destination):
        tree = routing.tree_to(destination)
        verdict: Dict[int, Optional[int]] = {
            destination: None if scenario.is_node_live(destination) else destination
        }
        for batch in by_destination[destination]:
            source = batch.source
            if not scenario.is_node_live(source):
                failed_demand.append(batch.demand)
                failed_flows += batch.flows
                continue
            if not tree.reaches(source):
                unrouted.append(batch.demand)
                continue
            chain: List[int] = []
            node = source
            outcome: Optional[int] = None
            while node not in verdict:
                chain.append(node)
                nxt = tree.next_hop(node)
                if nxt is None or not view.is_neighbor_reachable(node, nxt):
                    outcome = node
                    break
                node = nxt
            else:
                outcome = verdict[node]
            for visited in chain:
                verdict[visited] = outcome
            if outcome is None:
                intact.setdefault(destination, {})[source] = batch.demand
            else:
                disrupted.append(
                    DisruptedPair(
                        source=source,
                        destination=destination,
                        initiator=outcome,
                        demand=batch.demand,
                        flows=batch.flows,
                    )
                )
    return PairClassification(
        disrupted=disrupted,
        intact_by_destination=intact,
        failed_source_demand=math.fsum(failed_demand),
        failed_source_flows=failed_flows,
        unrouted_demand=math.fsum(unrouted),
    )


def classification_fields(classification: PairClassification) -> Tuple:
    """Every field of ``classification`` as comparable data, orders kept.

    The disrupted pairs in order, each destination's intact sources in
    order, and the three sums (lost, unrouted and disrupted demand) by
    ``float.hex``.
    """
    return (
        classification.disrupted,
        [
            (destination, list(intact.items()))
            for destination, intact in classification.intact_by_destination.items()
        ],
        classification.failed_source_demand.hex(),
        classification.unrouted_demand.hex(),
        math.fsum(pair.demand for pair in classification.disrupted).hex(),
        classification.failed_source_flows,
    )


def reference_run_scenario(
    engine: TrafficEngine, scenario: FailureScenario, scenario_index: int = 0
) -> Dict[str, TrafficScenarioRecord]:
    """One failure event, every load rebuilt from scratch per approach."""
    classification = reference_classify(engine, scenario)
    groups: Groups = {}
    for pair in classification.disrupted:
        groups.setdefault((pair.initiator, pair.destination), []).append(pair)
    cases = _cases(engine, scenario, groups)
    if engine.congestion_aware:
        records = _run_congestion_aware(engine, scenario, cases, groups, classification)
    else:
        records = engine.runner.run(
            CaseSet(topo=engine.topo, routing=engine.routing, scenarios=[scenario], cases=cases)
        )
    return {
        approach: _weight(
            engine, approach, scenario_index, classification, groups, records[approach]
        )
        for approach in engine.approaches
    }


def _cases(engine: TrafficEngine, scenario: FailureScenario, groups: Groups) -> List[TestCase]:
    oracle = Oracle(engine.topo, scenario, cache=engine.cache)
    cases = []
    for initiator, destination in sorted(groups):
        optimal = oracle.optimal_cost(initiator, destination)
        cases.append(
            TestCase(
                scenario_index=0,
                initiator=initiator,
                destination=destination,
                trigger=engine.routing.next_hop(initiator, destination),
                recoverable=optimal is not None,
                optimal_cost=optimal,
            )
        )
    return cases


def _intact_loads(engine: TrafficEngine, classification: PairClassification) -> LinkLoadMap:
    loads = LinkLoadMap(engine.topo)
    for destination in sorted(classification.intact_by_destination):
        loads.merge_loads(
            engine.routing.edge_loads_to(
                destination, classification.intact_by_destination[destination]
            )
        )
    return loads


def _prefix_links(engine: TrafficEngine, pair: DisruptedPair) -> Iterator[Link]:
    tree = engine.routing.tree_to(pair.destination)
    node = pair.source
    while node != pair.initiator:
        nxt = tree.next_hop(node)
        yield Link.of(node, nxt)
        node = nxt


def _exceeds_cap(engine: TrafficEngine, loads: LinkLoadMap, path, demand: float) -> bool:
    for a, b in path.hops():
        link = Link.of(a, b)
        capacity = engine.topo.link_capacity(link)
        if capacity is None or capacity <= 0.0:
            continue
        if (loads.load(link) + demand) / capacity > engine.utilization_cap + 1e-12:
            return True
    return False


def _run_congestion_aware(
    engine: TrafficEngine,
    scenario: FailureScenario,
    cases: Sequence[TestCase],
    groups: Groups,
    classification: PairClassification,
) -> Dict[str, List[CaseRecord]]:
    """Every case on a fresh instance built with a from-scratch penalty.

    Nothing survives from one case to the next but the loads themselves:
    no live penalty, no phase-2 engine — the engine's version-keyed drops
    have to be invisible against this.
    """
    records: Dict[str, List[CaseRecord]] = {}
    for name in engine.approaches:
        scheme = engine.runner.schemes[name]
        loads = _intact_loads(engine, classification)
        out: List[CaseRecord] = []
        for case in cases:
            penalty = LinkPenalty.from_load_map(loads)
            result = scheme.instantiate(scenario, penalty=penalty).recover(case)
            group = groups[(case.initiator, case.destination)]
            group_demand = math.fsum(p.demand for p in group)
            if (
                engine.utilization_cap is not None
                and result.delivered
                and result.path is not None
                and _exceeds_cap(engine, loads, result.path, group_demand)
            ):
                result = replace(
                    result,
                    delivered=False,
                    path=None,
                    drop_hops=0,
                    drop_packet_bytes=0,
                    admission_dropped=True,
                )
            out.append(CaseRecord(case=case, result=result))
            for pair in group:
                for link in _prefix_links(engine, pair):
                    loads.add_link(link, pair.demand)
            if result.delivered and result.path is not None:
                loads.add_links([Link.of(*hop) for hop in result.path.hops()], group_demand)
        records[name] = out
    return records


def _weight(
    engine: TrafficEngine,
    approach: str,
    scenario_index: int,
    classification: PairClassification,
    groups: Groups,
    case_records: Sequence[CaseRecord],
) -> TrafficScenarioRecord:
    by_case = {(r.case.initiator, r.case.destination): r for r in case_records}
    sums: Dict[str, List[float]] = {
        name: []
        for name in (
            "disrupted", "recoverable", "irrecoverable", "delivered",
            "delivered_recoverable", "optimal", "stretch_sum", "stretch_weight",
            "phase1_loss", "fallback", "error", "admission_dropped",
        )
    }
    max_stretch = 0.0
    disrupted_flows = 0
    delivered_flows = 0
    loads = _intact_loads(engine, classification)

    for key in sorted(groups):
        record = by_case[key]
        group = groups[key]
        group_demand = math.fsum(p.demand for p in group)
        group_flows = sum(p.flows for p in group)
        sums["disrupted"].append(group_demand)
        disrupted_flows += group_flows
        if record.case.recoverable:
            sums["recoverable"].append(group_demand)
        else:
            sums["irrecoverable"].append(group_demand)
        result = record.result
        if result.delivered:
            sums["delivered"].append(group_demand)
            delivered_flows += group_flows
            if record.case.recoverable:
                sums["delivered_recoverable"].append(group_demand)
            stretch = record.stretch()
            if stretch is not None:
                sums["stretch_sum"].append(group_demand * stretch)
                sums["stretch_weight"].append(group_demand)
                max_stretch = max(max_stretch, stretch)
            if record.is_optimal():
                sums["optimal"].append(group_demand)
        if result.status == "fallback":
            sums["fallback"].append(group_demand)
        elif result.status == "error":
            sums["error"].append(group_demand)
        if result.admission_dropped:
            sums["admission_dropped"].append(group_demand)
        if result.phase1_duration > 0.0:
            sums["phase1_loss"].append(group_demand * result.phase1_duration)
        for pair in group:
            for link in _prefix_links(engine, pair):
                loads.add_link(link, pair.demand)
        if result.delivered and result.path is not None:
            loads.add_links([Link.of(*hop) for hop in result.path.hops()], group_demand)

    overloaded = reference_loads.overloaded_links(loads)
    return TrafficScenarioRecord(
        utilization_hist=reference_loads.utilization_histogram(loads),
        overload_attribution=_attribute(engine, overloaded, groups, by_case),
        approach=approach,
        scenario_index=scenario_index,
        total_demand=engine.matrix.total_demand,
        total_flows=engine.flow_set.n_flows,
        disrupted_pairs=len(classification.disrupted),
        disrupted_demand=math.fsum(sums["disrupted"]),
        disrupted_flows=disrupted_flows,
        failed_source_demand=classification.failed_source_demand,
        failed_source_flows=classification.failed_source_flows,
        recoverable_demand=math.fsum(sums["recoverable"]),
        irrecoverable_demand=math.fsum(sums["irrecoverable"]),
        delivered_demand=math.fsum(sums["delivered"]),
        delivered_flows=delivered_flows,
        delivered_recoverable_demand=math.fsum(sums["delivered_recoverable"]),
        optimal_demand=math.fsum(sums["optimal"]),
        stretch_demand_sum=math.fsum(sums["stretch_sum"]),
        stretch_demand_weight=math.fsum(sums["stretch_weight"]),
        max_stretch=max_stretch,
        phase1_loss=math.fsum(sums["phase1_loss"]),
        fallback_demand=math.fsum(sums["fallback"]),
        error_demand=math.fsum(sums["error"]),
        max_utilization=reference_loads.max_utilization(loads),
        overloaded_links=len(overloaded),
        overload_demand=reference_loads.overload_demand(loads),
        admission_dropped_demand=math.fsum(sums["admission_dropped"]),
    )


def _attribute(
    engine: TrafficEngine,
    overloaded: Sequence[Tuple[Link, float]],
    groups: Groups,
    by_case: Dict[Tuple[int, int], CaseRecord],
) -> Tuple:
    if not overloaded:
        return ()
    top = {link for link, _ in overloaded[:3]}
    contributions: Dict[Link, Dict[Tuple[int, int], float]] = {link: {} for link in top}

    def charge(link: Link, pair: DisruptedPair) -> None:
        per_pair = contributions[link]
        key = (pair.source, pair.destination)
        per_pair[key] = per_pair.get(key, 0.0) + pair.demand

    for key in sorted(groups):
        group = groups[key]
        for pair in group:
            for link in _prefix_links(engine, pair):
                if link in top:
                    charge(link, pair)
        result = by_case[key].result
        if result.delivered and result.path is not None:
            for a, b in result.path.hops():
                link = Link.of(a, b)
                if link in top:
                    for pair in group:
                        charge(link, pair)
    return overload_attribution(overloaded, contributions)
