"""Flow-level batched traffic simulator over the recovery pipeline.

The per-packet engine (:mod:`repro.simulator.engine`) simulates one
probe at a time; running it once per user flow would cost millions of
walks that all repeat each other.  This engine exploits the two
aggregation levels the protocol itself induces:

1. **flows → OD pairs** — every flow of one (source, destination) pair
   shares a fate, so a :class:`~repro.traffic.flows.FlowSet` collapses
   the population to at most ``n·(n-1)`` batches;
2. **OD pairs → recovery cases** — disrupted pairs funnel into the
   router that first sees the broken next hop, and RTR's phase-1 walk,
   phase-2 trees, and the baselines' per-case state depend only on
   (initiator, destination, scenario).  Pairs sharing both collapse
   into one :class:`~repro.eval.cases.TestCase`, executed once through
   the existing :class:`~repro.eval.runner.EvaluationRunner` (which
   reuses the sweep-wide :class:`~repro.routing.SPTCache` and the CSR
   kernels underneath).

The outcome of each case is then multiplied back out by the demand and
flow counts of its member pairs, producing the traffic-weighted records
of :mod:`repro.traffic.metrics` — a sweep over millions of flows costs
the same shortest-path work as the unweighted evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..schemes.oracle import Oracle
from ..chaos import FaultPlan
from ..core import RTRConfig
from ..eval.cases import CaseSet, TestCase
from ..eval.metrics import CaseRecord
from ..eval.runner import EvaluationRunner, LoadHook, Settle
from ..failures import FailureScenario
from ..routing import RoutingTable, SPTCache
from ..simulator import RecoveryResult
from ..topology import Link, Topology
from ..te.metrics import overload_attribution
from ..te.penalty import LinkPenalty
from .capacity import DEFAULT_HEADROOM, LinkLoadMap, provision_capacities
from .flows import FlowSet
from .metrics import TrafficScenarioRecord, check_accounting, safe_div

log = obs.get_logger(__name__)


@dataclass(frozen=True)
class DisruptedPair:
    """One OD pair whose default path broke with a live source."""

    source: int
    destination: int
    #: First router on the default path whose next hop became unreachable
    #: — the node that initiates recovery for this pair's traffic.
    initiator: int
    demand: float
    flows: int


@dataclass
class PairClassification:
    """How one scenario partitions the demand matrix."""

    disrupted: List[DisruptedPair]
    #: source -> demand, per destination, for pairs whose path survived.
    intact_by_destination: Dict[int, Dict[int, float]]
    failed_source_demand: float
    failed_source_flows: int
    #: Demand with no pre-failure route at all (disconnected snapshots).
    unrouted_demand: float


@dataclass(frozen=True)
class _GroupPlan:
    """One recovery case and the traffic behind it, as every scheme sees it."""

    #: (initiator, destination) — the :class:`TestCase` this group runs as.
    key: Tuple[int, int]
    pairs: Tuple[DisruptedPair, ...]
    #: Surviving default-path links source -> initiator, one tuple per pair.
    prefixes: Tuple[Tuple[Link, ...], ...]
    #: The distinct links of ``prefixes`` (first-seen order).
    prefix_links: Tuple[Link, ...]
    #: ``fsum`` of the member pairs' demand, and their flow count.
    demand: float
    flows: int

    def add_load(self, loads: LinkLoadMap, path_links: Sequence[Link]) -> None:
        """Post-recovery load of this group, delivered along ``path_links``.

        The surviving prefix up to the initiator carries each pair's
        traffic either way; the recovery path carries the group onward
        only when delivery succeeded (:func:`_delivered_links`).  Every
        consumer of a window plan accumulates through here, in (pair,
        link) then path order — the order is what keeps the float sums
        of all of them bit-identical.
        """
        for pair, prefix in zip(self.pairs, self.prefixes):
            loads.add_links(prefix, pair.demand)
        loads.add_links(path_links, self.demand)


def _delivered_links(result: RecoveryResult) -> Tuple[Link, ...]:
    """Links of the path ``result`` delivered on; empty when it did not."""
    if not result.delivered or result.path is None:
        return ()
    return tuple(Link.of(a, b) for a, b in result.path.hops())


@dataclass(frozen=True)
class _WindowPlan:
    """The scheme-independent half of one convergence window's weighting.

    ``groups`` is sorted by key; ``intact`` is the background load of the
    pairs the failure left alone and is never written to — each consumer
    starts from ``intact.copy()`` and replays ``groups`` in order.
    """

    intact: LinkLoadMap
    groups: Tuple[_GroupPlan, ...]


def classify_pairs(
    topo: Topology,
    routing: RoutingTable,
    scenario: FailureScenario,
    flow_set: FlowSet,
) -> PairClassification:
    """Partition every demand-carrying pair under one failure scenario.

    A pair is *disrupted* when its source is live and its default
    next-hop chain crosses a failed adjacency; the first router with the
    broken next hop is its recovery initiator.  The walk is memoized per
    destination (a node's verdict settles every pair routed through it),
    mirroring :func:`repro.eval.cases.count_failed_routing_paths`.
    """
    # The per-hop probe is two lookups: a (node, next hop) pair is a tree
    # edge, hence an interned adjacency, and ``failed_links`` includes every
    # link of a failed router — one flag answers "can this hop carry traffic".
    pair_lid = topo.csr().pair_lid
    link_failed = scenario.failed_link_flags()
    failed_nodes = scenario.failed_nodes
    disrupted: List[DisruptedPair] = []
    intact: Dict[int, Dict[int, float]] = {}
    failed_demand: List[float] = []
    failed_flows = 0
    unrouted: List[float] = []

    by_destination = flow_set.by_destination()

    # One batched multi-source kernel call computes every destination
    # tree the loop below would otherwise solve one heap run at a time
    # (bit-identical results; a no-op for already-cached trees).
    routing.warm(sorted(by_destination))

    for destination in sorted(by_destination):
        tree = routing.tree_to(destination)
        parent = tree.parent
        dist = tree.dist
        # verdict[v]: None = path from v survives; otherwise the initiator id.
        verdict: Dict[int, Optional[int]] = {
            destination: destination if destination in failed_nodes else None
        }
        # A failed destination never terminates a walk cleanly: every
        # adjacency into it is down, so the last live hop is the
        # initiator.  The sentinel above is never consulted in that case.
        intact_here: Dict[int, float] = {}
        for source, demand, flows in by_destination[destination]:
            if source in failed_nodes:
                failed_demand.append(demand)
                failed_flows += flows
                continue
            if source not in dist:
                unrouted.append(demand)
                continue
            chain: List[int] = []
            node = source
            outcome: Optional[int] = None
            while node not in verdict:
                chain.append(node)
                nxt = parent.get(node)
                if nxt is None or link_failed[pair_lid[(node, nxt)]]:
                    # nxt is None only at the tree root, and a live,
                    # reached destination is pre-seeded — so this is the
                    # first broken adjacency: ``node`` initiates recovery.
                    outcome = node
                    break
                node = nxt
            else:
                outcome = verdict[node]
            for visited in chain:
                verdict[visited] = outcome
            if outcome is None:
                intact_here[source] = demand
            else:
                disrupted.append(
                    DisruptedPair(
                        source=source,
                        destination=destination,
                        initiator=outcome,
                        demand=demand,
                        flows=flows,
                    )
                )
        if intact_here:
            intact[destination] = intact_here
    return PairClassification(
        disrupted=disrupted,
        intact_by_destination=intact,
        failed_source_demand=math.fsum(failed_demand),
        failed_source_flows=failed_flows,
        unrouted_demand=math.fsum(unrouted),
    )


class TrafficEngine:
    """Runs traffic-weighted recovery sweeps over one topology.

    Owns the per-topology shared state (routing table, SPT pool,
    provisioned capacities) exactly like
    :class:`~repro.eval.runner.EvaluationRunner` owns the unweighted
    equivalent — one engine serves every scenario of a sweep.
    """

    def __init__(
        self,
        topo: Topology,
        flow_set: FlowSet,
        routing: Optional[RoutingTable] = None,
        approaches: Sequence[str] = ("RTR", "FCP"),
        cache: Optional[SPTCache] = None,
        rtr_config: Optional[RTRConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        provision: bool = True,
        congestion_aware: bool = False,
        headroom: float = DEFAULT_HEADROOM,
        utilization_cap: Optional[float] = None,
    ) -> None:
        self.topo = topo
        self.flow_set = flow_set
        self.matrix = flow_set.matrix
        self.cache = cache if cache is not None else SPTCache()
        self.routing = (
            routing if routing is not None else RoutingTable(topo, cache=self.cache)
        )
        self.approaches = tuple(approaches)
        self.congestion_aware = congestion_aware
        if utilization_cap is not None and utilization_cap <= 0.0:
            raise ValueError(
                f"utilization_cap must be > 0, got {utilization_cap}"
            )
        if utilization_cap is not None and not congestion_aware:
            raise ValueError(
                "utilization_cap requires congestion_aware=True "
                "(admission control runs inside the live-load case loop)"
            )
        #: Admission control: a congestion-aware sweep refuses recoveries
        #: whose admitted demand would push any provisioned link past this
        #: utilization.  Rerouting alone cannot always stay below a bound —
        #: when the only surviving corridor is a bridge, every scheme that
        #: delivers everything overloads it — so congestion-*free* recovery
        #: (the R3/Enhanced-MRC guarantee) necessarily sheds the overflow.
        self.utilization_cap = utilization_cap
        if congestion_aware:
            # Every scheme of a congestion-aware sweep is built with the
            # window's live load penalty (:meth:`_load_hook`).  Penalized
            # detours stray from the shortest corridor and hit failures
            # phase 1 missed more often, so §III-D re-invocations (learn
            # the link from the drop, recompute) are enabled unless the
            # caller configured their own budget.
            base_config = rtr_config if rtr_config is not None else RTRConfig()
            rtr_config = replace(
                base_config,
                max_phase2_reinvocations=max(
                    base_config.max_phase2_reinvocations, 3
                ),
            )
        self.rtr_config = rtr_config
        self.fault_plan = fault_plan
        # Always (re)provision: capacities are a deterministic function of
        # (topology, matrix), so overwriting keeps utilization numbers
        # independent of whatever sweep touched this shared topology
        # before.  Pass ``provision=False`` to keep custom capacities.
        if provision:
            provision_capacities(topo, self.matrix, self.routing, headroom=headroom)
        self.runner = EvaluationRunner(
            topo,
            routing=self.routing,
            approaches=self.approaches,
            rtr_config=rtr_config,
            fault_plan=fault_plan,
            sp_cache=self.cache,
        )

    # ------------------------------------------------------------------

    def run_scenario(
        self, scenario: FailureScenario, scenario_index: int = 0
    ) -> Dict[str, TrafficScenarioRecord]:
        """One failure event: classify, plan, recover, weight."""
        with obs.span("traffic.scenario", index=scenario_index):
            with obs.span("traffic.classify"):
                classification = classify_pairs(
                    self.topo, self.routing, scenario, self.flow_set
                )
            obs.inc("traffic.pairs.disrupted", len(classification.disrupted))
            obs.inc(
                "traffic.flows.disrupted",
                sum(p.flows for p in classification.disrupted),
            )
            with obs.span("traffic.plan"):
                plan = self._plan_window(classification)
            cases = self._cases_for_groups(scenario, plan.groups)
            # One convergence window per scenario; the runner takes its
            # cases one at a time, plan -> walk -> finish (DESIGN.md §15),
            # settling each into the live load when the sweep has one.
            live: List[Tuple[LinkPenalty, LinkLoadMap]] = []
            window = CaseSet(self.topo, self.routing, [scenario], cases)
            records = self.runner.run(window, load=self._load_hook(plan, live))
            for penalty, loads in live:
                penalty.check_against(loads)
            out: Dict[str, TrafficScenarioRecord] = {}
            for approach in self.approaches:
                with obs.span("traffic.weight", approach=approach):
                    out[approach] = self._weight_records(
                        approach,
                        scenario_index,
                        classification,
                        plan,
                        records[approach],
                    )
        return out

    def run_sweep(
        self, scenarios: Sequence[FailureScenario]
    ) -> Dict[str, List[TrafficScenarioRecord]]:
        """All scenarios in order; returns per-approach record lists."""
        results: Dict[str, List[TrafficScenarioRecord]] = {
            a: [] for a in self.approaches
        }
        for index, scenario in enumerate(scenarios):
            per_approach = self.run_scenario(scenario, index)
            for approach in self.approaches:
                results[approach].append(per_approach[approach])
        return results

    # ------------------------------------------------------------------

    def _load_hook(
        self, plan: _WindowPlan, live: List[Tuple[LinkPenalty, LinkLoadMap]]
    ) -> Optional[LoadHook]:
        """The runner's load hook for one window (``None`` when blind).

        Every approach gets its own loads, copied from the window's intact
        background, and a :class:`~repro.te.penalty.LinkPenalty` built
        from them once; the scheme is instantiated with it.  ``settle``
        admits each result against the cap, adds the group's load and
        refreshes the penalty on just the links that group loaded, so the
        next recovery steers around them.  ``live`` collects every
        ``(penalty, loads)`` for the end-of-window check.  State is per
        window, which keeps serial and sharded sweeps identical.
        """
        if not self.congestion_aware:
            return None

        def load(name: str) -> Tuple[LinkPenalty, Settle]:
            loads = plan.intact.copy()
            penalty = LinkPenalty.from_load_map(loads)
            live.append((penalty, loads))

            def settle(position: int, result: RecoveryResult) -> RecoveryResult:
                group = plan.groups[position]
                path_links = _delivered_links(result)
                if self._exceeds_cap(loads, path_links, group.demand):
                    # Admission control: delivering this group would push
                    # a link past the cap, so the initiator sheds it
                    # instead (early discard — zero transmission waste).
                    obs.inc("traffic.admission.dropped")
                    result = replace(
                        result,
                        delivered=False,
                        path=None,
                        drop_hops=0,
                        drop_packet_bytes=0,
                        admission_dropped=True,
                    )
                    path_links = ()
                group.add_load(loads, path_links)
                penalty.refresh(loads, group.prefix_links + path_links)
                return result

            return penalty, settle

        return load

    def _exceeds_cap(
        self, loads: LinkLoadMap, path_links: Sequence[Link], demand: float
    ) -> bool:
        """Would routing ``demand`` over ``path_links`` breach the cap anywhere?

        Links without a provisioned capacity are never capped (their
        utilization is undefined); a small tolerance keeps admitting
        demand that lands exactly on the cap.
        """
        cap = self.utilization_cap
        if cap is None:
            return False
        for link in path_links:
            capacity = self.topo.link_capacity(link)
            if capacity is None or capacity <= 0.0:
                continue
            if (loads.load(link) + demand) / capacity > cap + 1e-12:
                return True
        return False

    def _intact_loads(self, classification: PairClassification) -> LinkLoadMap:
        """Default-path loads of the pairs the failure did not disrupt.

        One batched tree pass per destination, destinations in sorted
        order (deterministic float accumulation).
        """
        loads = LinkLoadMap(self.topo)
        for destination in sorted(classification.intact_by_destination):
            loads.merge_loads(
                self.routing.edge_loads_to(
                    destination,
                    classification.intact_by_destination[destination],
                )
            )
        return loads

    def _plan_window(self, classification: PairClassification) -> _WindowPlan:
        """Everything of one window's demand weighting no scheme can change.

        Built once per :meth:`run_scenario` and handed down as a value —
        never kept on the engine, because a prefix depends on the
        window's initiator and would go stale at the next scenario.
        """
        by_case: Dict[Tuple[int, int], List[DisruptedPair]] = {}
        for pair in classification.disrupted:
            by_case.setdefault((pair.initiator, pair.destination), []).append(pair)
        groups = []
        for key in sorted(by_case):
            pairs = tuple(by_case[key])
            prefixes = tuple(self._prefix_links(pair) for pair in pairs)
            groups.append(
                _GroupPlan(
                    key=key,
                    pairs=pairs,
                    prefixes=prefixes,
                    prefix_links=tuple(
                        dict.fromkeys(link for prefix in prefixes for link in prefix)
                    ),
                    demand=math.fsum(p.demand for p in pairs),
                    flows=sum(p.flows for p in pairs),
                )
            )
        return _WindowPlan(
            intact=self._intact_loads(classification), groups=tuple(groups)
        )

    def _cases_for_groups(
        self, scenario: FailureScenario, groups: Sequence[_GroupPlan]
    ) -> List[TestCase]:
        """One :class:`TestCase` per group (same order), classified by the oracle."""
        oracle = Oracle(self.topo, scenario, cache=self.cache)
        cases: List[TestCase] = []
        for group in groups:
            initiator, destination = group.key
            trigger = self.routing.next_hop(initiator, destination)
            assert trigger is not None  # the walk crossed this adjacency
            optimal = oracle.optimal_cost(initiator, destination)
            cases.append(
                TestCase(
                    scenario_index=0,
                    initiator=initiator,
                    destination=destination,
                    trigger=trigger,
                    recoverable=optimal is not None,
                    optimal_cost=optimal,
                )
            )
        return cases

    def _weight_records(
        self,
        approach: str,
        scenario_index: int,
        classification: PairClassification,
        plan: _WindowPlan,
        case_records: Sequence[CaseRecord],
    ) -> TrafficScenarioRecord:
        """Multiply per-case outcomes by their member pairs' traffic."""
        by_case: Dict[Tuple[int, int], CaseRecord] = {
            (r.case.initiator, r.case.destination): r for r in case_records
        }
        disrupted_demand: List[float] = []
        recoverable_demand: List[float] = []
        irrecoverable_demand: List[float] = []
        delivered_demand: List[float] = []
        delivered_recoverable: List[float] = []
        optimal_demand: List[float] = []
        stretch_sum: List[float] = []
        stretch_weight: List[float] = []
        phase1_loss: List[float] = []
        fallback_demand: List[float] = []
        error_demand: List[float] = []
        admission_dropped: List[float] = []
        max_stretch = 0.0
        disrupted_flows = 0
        delivered_flows = 0

        # Surviving pairs keep their default paths.
        loads = plan.intact.copy()

        for group in plan.groups:
            record = by_case[group.key]
            group_demand = group.demand
            disrupted_demand.append(group_demand)
            disrupted_flows += group.flows
            if record.case.recoverable:
                recoverable_demand.append(group_demand)
            else:
                irrecoverable_demand.append(group_demand)
            result = record.result
            if result.delivered:
                delivered_demand.append(group_demand)
                delivered_flows += group.flows
                if record.case.recoverable:
                    delivered_recoverable.append(group_demand)
                stretch = record.stretch()
                if stretch is not None:
                    stretch_sum.append(group_demand * stretch)
                    stretch_weight.append(group_demand)
                    max_stretch = max(max_stretch, stretch)
                if record.is_optimal():
                    optimal_demand.append(group_demand)
            if result.status == "fallback":
                fallback_demand.append(group_demand)
            elif result.status == "error":
                error_demand.append(group_demand)
            if result.admission_dropped:
                admission_dropped.append(group_demand)
            # Traffic black-holed while the initiator's phase-1 walk was
            # still in flight (§IV-B delay model): rate × window.
            if result.phase1_duration > 0.0:
                phase1_loss.append(group_demand * result.phase1_duration)
            group.add_load(loads, _delivered_links(result))

        overloaded = loads.overloaded_links()
        record = TrafficScenarioRecord(
            utilization_hist=loads.utilization_cdf(),
            overload_attribution=self._attribute_overloads(
                loads, overloaded, plan, by_case
            ),
            approach=approach,
            scenario_index=scenario_index,
            total_demand=self.matrix.total_demand,
            total_flows=self.flow_set.n_flows,
            disrupted_pairs=len(classification.disrupted),
            disrupted_demand=math.fsum(disrupted_demand),
            disrupted_flows=disrupted_flows,
            failed_source_demand=classification.failed_source_demand,
            failed_source_flows=classification.failed_source_flows,
            recoverable_demand=math.fsum(recoverable_demand),
            irrecoverable_demand=math.fsum(irrecoverable_demand),
            delivered_demand=math.fsum(delivered_demand),
            delivered_flows=delivered_flows,
            delivered_recoverable_demand=math.fsum(delivered_recoverable),
            optimal_demand=math.fsum(optimal_demand),
            stretch_demand_sum=math.fsum(stretch_sum),
            stretch_demand_weight=math.fsum(stretch_weight),
            max_stretch=max_stretch,
            phase1_loss=math.fsum(phase1_loss),
            fallback_demand=math.fsum(fallback_demand),
            error_demand=math.fsum(error_demand),
            max_utilization=loads.max_utilization(),
            overloaded_links=len(overloaded),
            overload_demand=loads.overload_demand(),
            admission_dropped_demand=math.fsum(admission_dropped),
        )
        check_accounting(record)
        obs.inc(f"traffic.demand.delivered.{approach}", record.delivered_demand)
        obs.observe("traffic.max_utilization", record.max_utilization)
        if overloaded:
            obs.inc("traffic.links.overloaded", len(overloaded))
        obs.gauge(
            f"traffic.delivered_fraction.{approach}",
            safe_div(record.delivered_demand, record.disrupted_demand),
        )
        return record

    def _attribute_overloads(
        self,
        loads: LinkLoadMap,
        overloaded: Sequence[Tuple[Link, float]],
        plan: _WindowPlan,
        by_case: Dict[Tuple[int, int], CaseRecord],
    ) -> Tuple:
        """Top-k overload attribution (empty when nothing is overloaded).

        A second pass over the disrupted groups charges each top
        overloaded link with the rerouted OD demands that crossed it —
        surviving prefixes and delivered recovery paths; intact
        background load is not a rerouting decision, so it is not
        attributed.
        """
        if not overloaded:
            return ()
        top = {link for link, _ in overloaded[:3]}
        contributions: Dict[Link, Dict[Tuple[int, int], float]] = {
            link: {} for link in top
        }

        def charge(link: Link, pair: DisruptedPair) -> None:
            per_pair = contributions[link]
            key = (pair.source, pair.destination)
            per_pair[key] = per_pair.get(key, 0.0) + pair.demand

        for group in plan.groups:
            for pair, prefix in zip(group.pairs, group.prefixes):
                for link in prefix:
                    if link in top:
                        charge(link, pair)
            for link in _delivered_links(by_case[group.key].result):
                if link in top:
                    for pair in group.pairs:
                        charge(link, pair)
        return overload_attribution(loads, contributions)

    def _prefix_links(self, pair: DisruptedPair) -> Tuple[Link, ...]:
        """Links of the surviving default-path prefix source -> initiator."""
        parent = self.routing.tree_to(pair.destination).parent
        csr = self.topo.csr()
        links = []
        node = pair.source
        while node != pair.initiator:
            nxt = parent[node]  # the classification walk got through
            links.append(csr.links[csr.pair_lid[(node, nxt)]])
            node = nxt
        return tuple(links)
