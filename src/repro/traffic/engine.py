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
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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
from ..topology.csr import CSRView
from ..te.metrics import overload_attribution
from ..te.penalty import LinkPenalty
from .capacity import DEFAULT_HEADROOM, LinkLoadMap, provision_capacities
from .flows import FlowBatch, FlowSet
from .metrics import TrafficScenarioRecord, check_accounting, safe_div

_INF = float("inf")

log = obs.get_logger(__name__)


class DisruptedPair(NamedTuple):
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
    #: Link ids of the surviving default path source -> initiator, one
    #: tuple per pair.
    prefixes: Tuple[Tuple[int, ...], ...]
    #: The distinct link ids of ``prefixes`` (first-seen order).
    prefix_lids: Tuple[int, ...]
    #: ``fsum`` of the member pairs' demand, and their flow count.
    demand: float
    flows: int

    def add_load(self, loads: LinkLoadMap, path_lids: Sequence[int]) -> None:
        """Post-recovery load of this group, delivered along ``path_lids``.

        The surviving prefix up to the initiator carries each pair's
        traffic either way; the recovery path carries the group onward
        only when delivery succeeded (:func:`_delivered_lids`).  Every
        consumer of a window plan accumulates through here, in (pair,
        link) then path order — the order is what keeps the float sums
        of all of them bit-identical.
        """
        for pair, prefix in zip(self.pairs, self.prefixes):
            loads.add_lids(prefix, pair.demand)
        loads.add_lids(path_lids, self.demand)


def _delivered_lids(
    result: RecoveryResult, pair_lid: Mapping[Tuple[int, int], int]
) -> Tuple[int, ...]:
    """Link ids of the path ``result`` delivered on; empty when it did not.

    Each record's path is converted once; the load, the cap check, the
    penalty refresh and the overload attribution all read this tuple.
    """
    if not result.delivered or result.path is None:
        return ()
    nodes = result.path.nodes
    return tuple(pair_lid[hop] for hop in zip(nodes, nodes[1:]))


@dataclass(frozen=True)
class _WindowPlan:
    """The scheme-independent half of one convergence window's weighting.

    ``groups`` is sorted by key; ``intact`` is the background load of the
    pairs the failure left alone and is never written to — each consumer
    starts from ``intact.copy()`` and replays ``groups`` in order.
    ``crossing`` maps a link id to the disrupted pairs whose surviving
    prefix crosses it (once each: a prefix is a tree path), in group order.
    """

    intact: LinkLoadMap
    groups: Tuple[_GroupPlan, ...]
    crossing: Dict[int, List[DisruptedPair]]
    #: lid -> :meth:`prefix_charges` answer, filled on first ask.
    charged: Dict[int, Dict[Tuple[int, int], float]] = field(
        default_factory=dict, compare=False
    )

    def loads_after(self, delivered: Sequence[Tuple[int, ...]]) -> LinkLoadMap:
        """The window's post-recovery loads, group ``i`` delivered on ``delivered[i]``."""
        loads = self.intact.copy()
        for group, path_lids in zip(self.groups, delivered):
            group.add_load(loads, path_lids)
        return loads

    def prefix_charges(self, lid: int) -> Dict[Tuple[int, int], float]:
        """``(source, destination) -> demand`` of the prefixes crossing ``lid``.

        Computed once per window and shared by every approach: copy it
        before adding the delivered paths' charges.  A pair crosses a
        link at most once on its prefix, so its charge is its demand.
        """
        charges = self.charged.get(lid)
        if charges is None:
            charges = self.charged[lid] = {
                (pair.source, pair.destination): pair.demand
                for pair in self.crossing.get(lid, ())
            }
        return charges


class _LiveLoad(NamedTuple):
    """One approach's state over a congestion-aware window (:meth:`TrafficEngine._load_hook`)."""

    penalty: LinkPenalty
    #: The window's load so far: intact background plus every settled group.
    loads: LinkLoadMap
    #: Link ids each settled group delivered on, in case order.
    delivered: List[Tuple[int, ...]]


class _Rooted(NamedTuple):
    """One destination's slice of a :class:`DemandIndex`.

    The union of the sources' next-hop chains in the destination's tree,
    in preorder: ``pre`` maps a node index to its position; per position,
    ``end`` is one past its subtree, ``up`` its next hop's link id (-1 at
    the root) and ``rank`` the index in ``batches`` of the batch sourced
    there (-1: none).  ``base`` is every reached source's demand.

    The same nodes but the root, in ``edge_loads_to``'s (distance desc,
    id asc) order, give the ``flow_*`` lists: per place, ``flow_up`` is
    its next hop's link id, ``flow_next`` the next hop's place (the root's
    is ``len(flow_up)``) and ``flow_source`` the id of the node when a
    batch is sourced there (-1: none).
    """

    parent: Sequence[int]  # the tree's dense_parent
    pre: Dict[int, int]
    end: List[int]
    up: List[int]
    rank: List[int]
    batches: List[FlowBatch]  # in FlowSet.batches() order
    base: Dict[int, float]
    unreached: List[FlowBatch]  # sourced where the tree does not reach
    flow_up: List[int]
    flow_next: List[int]
    flow_source: List[int]


class DemandIndex(NamedTuple):
    """A flow set's sources laid out on one routing table's trees, per destination."""

    routing: RoutingTable
    csr: CSRView
    rooted: Dict[int, _Rooted]


def demand_index(topo: Topology, routing: RoutingTable, flow_set: FlowSet) -> DemandIndex:
    """``flow_set``'s :class:`DemandIndex` over ``routing``, kept on the flow set.

    Shared by every window and candidate area; a different routing table,
    or a topology mutation (a new CSR view), builds a new one.
    """
    csr = topo.csr()
    index = flow_set.demand_index
    if index is not None and index.routing is routing and index.csr is csr:
        return index
    obs.inc("traffic.demand_index.builds")
    by_destination: Dict[int, List[FlowBatch]] = {}
    for batch in flow_set.batches():
        by_destination.setdefault(batch.destination, []).append(batch)
    pos, ids, pair_lid = csr.pos, csr.ids, csr.pair_lid
    rooted: Dict[int, _Rooted] = {}
    for destination in sorted(by_destination):
        tree = routing.tree_to(destination)
        parent, dist = tree.dense_parent, tree.dense_dist
        root = pos[destination]
        children: Dict[int, List[int]] = {root: []}
        ranks: Dict[int, int] = {}
        base: Dict[int, float] = {}
        unreached: List[FlowBatch] = []
        batches = by_destination[destination]
        for rank, batch in enumerate(batches):
            node = pos.get(batch.source)
            if node is None or dist[node] == _INF:
                unreached.append(batch)
                continue
            base[batch.source] = batch.demand
            ranks[node] = rank
            while node not in children:
                children[node] = []
                node = parent[node]
        for node in children:
            if node != root:
                children[parent[node]].append(node)
        order: List[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(children[node])
        pre = {node: i for i, node in enumerate(order)}
        end = list(range(1, len(order) + 1))
        for i in range(len(order) - 1, 0, -1):
            above = pre[parent[order[i]]]
            end[above] = max(end[above], end[i])
        up = [-1] + [pair_lid[(ids[node], ids[parent[node]])] for node in order[1:]]
        rank_at = [ranks.get(node, -1) for node in order]
        # Node index order is id order; a stable sort keeps it among equal
        # distances, reverse=True included.
        flow = sorted(sorted(order[1:]), key=dist.__getitem__, reverse=True)
        place = {node: k for k, node in enumerate(flow)}
        place[root] = len(flow)
        rooted[destination] = _Rooted(
            parent,
            pre,
            end,
            up,
            rank_at,
            batches,
            base,
            unreached,
            flow_up=[up[pre[node]] for node in flow],
            flow_next=[place[parent[node]] for node in flow],
            flow_source=[ids[node] if node in ranks else -1 for node in flow],
        )
    flow_set.demand_index = index = DemandIndex(routing, csr, rooted)
    return index


def classify_pairs(
    topo: Topology,
    routing: RoutingTable,
    scenario: FailureScenario,
    flow_set: FlowSet,
) -> PairClassification:
    """Partition every demand-carrying pair under one failure scenario.

    A pair is *disrupted* when its source is live and its default
    next-hop chain crosses a failed adjacency; the first router with the
    broken next hop is its recovery initiator.  A failed tree edge cuts
    off exactly the subtree below it, so only the :class:`DemandIndex`
    ranges below those cut nodes are visited.
    """
    index = demand_index(topo, routing, flow_set)
    pos, ids = index.csr.pos, index.csr.ids
    failed_nodes = scenario.failed_nodes
    # E2 includes every link of a failed router, so a failed router is a
    # cut node of every tree it is in, and so is each child below it.
    failed_pairs = [(pos[link.u], pos[link.v]) for link in scenario.failed_links]
    disrupted: List[DisruptedPair] = []
    intact: Dict[int, Dict[int, float]] = {}
    # A failed source is lost before it is unreached; ``fsum`` is order-free.
    lost: List[FlowBatch] = []
    unrouted: List[float] = []
    for destination, rooted in index.rooted.items():
        parent, pre, end, rank_at = rooted.parent, rooted.pre, rooted.end, rooted.rank
        cuts: List[Tuple[int, int]] = []
        for a, b in failed_pairs:
            cut = a if parent[a] == b else b if parent[b] == a else -1
            at = pre.get(cut)  # None: no tree edge, or no source below it
            if at is not None:
                cuts.append((at, ids[cut]))
        here = rooted.base.copy()
        # rank -> initiator of every batch sourced below a cut.  Subtree
        # ranges nest, and ancestors come first in preorder, so the
        # deepest cut above a position writes it last.
        labels: Dict[int, int] = {}
        for at, initiator in sorted(cuts):
            for i in range(at, end[at]):
                labels[rank_at[i]] = initiator
        labels.pop(-1, None)  # positions no batch is sourced at
        for rank in sorted(labels):
            batch = rooted.batches[rank]
            source = batch.source
            del here[source]
            if source in failed_nodes:
                lost.append(batch)
            else:
                disrupted.append(
                    DisruptedPair(source, destination, labels[rank], batch.demand, batch.flows)
                )
        for batch in rooted.unreached:
            if batch.source in failed_nodes:
                lost.append(batch)
            else:
                unrouted.append(batch.demand)
        if here:
            intact[destination] = here
    return PairClassification(
        disrupted=disrupted,
        intact_by_destination=intact,
        failed_source_demand=math.fsum(batch.demand for batch in lost),
        failed_source_flows=sum(batch.flows for batch in lost),
        unrouted_demand=math.fsum(unrouted),
    )


class TrafficEngine:
    """Runs traffic-weighted recovery sweeps over one topology.

    Owns the per-topology shared state (routing table, SPT pool,
    provisioned capacities) exactly like
    :class:`~repro.eval.runner.EvaluationRunner` owns the unweighted
    equivalent — one engine serves every scenario of a sweep.

    ``congestion_aware=True`` runs the disrupted groups one at a time
    under the load-penalized metric (DESIGN.md §14), with admission
    control when ``utilization_cap`` is set; the cap requires the flag and
    must be positive (``ValueError`` otherwise).  Off by default, so the
    pinned sweeps stay byte-identical.
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
            live: Dict[str, _LiveLoad] = {}
            window = CaseSet(self.topo, self.routing, [scenario], cases)
            records = self.runner.run(window, load=self._load_hook(plan, live))
            for held in live.values():
                held.penalty.check_against(held.loads)
            pair_lid = self.topo.csr().pair_lid
            out: Dict[str, TrafficScenarioRecord] = {}
            for approach in self.approaches:
                with obs.span("traffic.weight", approach=approach):
                    # Records come in case order, which is group order.
                    case_records = records[approach]
                    held = live.get(approach)
                    if held is not None:
                        # The live loads made the same adds in the same
                        # order as a replay of the plan would.
                        delivered, loads = held.delivered, held.loads
                    else:
                        delivered = [
                            _delivered_lids(r.result, pair_lid) for r in case_records
                        ]
                        loads = plan.loads_after(delivered)
                    out[approach] = self._weight_records(
                        approach,
                        scenario_index,
                        classification,
                        plan,
                        case_records,
                        delivered,
                        loads,
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
        self, plan: _WindowPlan, live: Dict[str, _LiveLoad]
    ) -> Optional[LoadHook]:
        """The runner's load hook for one window (``None`` when blind).

        Every approach gets its own loads, copied from the window's intact
        background, and a :class:`~repro.te.penalty.LinkPenalty` built
        from them once; the scheme is instantiated with it.  ``settle``
        admits each result against the cap, adds the group's load and
        refreshes the penalty on just the links that group loaded, so the
        next recovery steers around them.  ``live`` collects every
        approach's :class:`_LiveLoad` for the end-of-window check and the
        weighting.  State is per window, which keeps serial and sharded
        sweeps identical.
        """
        if not self.congestion_aware:
            return None
        pair_lid = self.topo.csr().pair_lid

        def load(name: str) -> Tuple[LinkPenalty, Settle]:
            loads = plan.intact.copy()
            penalty = LinkPenalty.from_load_map(loads)
            delivered: List[Tuple[int, ...]] = []
            live[name] = _LiveLoad(penalty, loads, delivered)

            def settle(position: int, result: RecoveryResult) -> RecoveryResult:
                group = plan.groups[position]
                path_lids = _delivered_lids(result, pair_lid)
                if self._exceeds_cap(loads, path_lids, group.demand):
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
                    path_lids = ()
                group.add_load(loads, path_lids)
                delivered.append(path_lids)
                penalty.refresh(loads, group.prefix_lids + path_lids)
                return result

            return penalty, settle

        return load

    def _exceeds_cap(
        self, loads: LinkLoadMap, path_lids: Sequence[int], demand: float
    ) -> bool:
        """Would routing ``demand`` over ``path_lids`` breach the cap anywhere?

        Links without a provisioned capacity are never capped (their
        utilization is undefined); a small tolerance keeps admitting
        demand that lands exactly on the cap.
        """
        cap = self.utilization_cap
        if cap is None:
            return False
        current = loads.lid_loads()
        capacities = self.topo.lid_capacities()
        for lid in path_lids:
            capacity = capacities[lid]
            if capacity is None or capacity <= 0.0:
                continue
            if (current[lid] + demand) / capacity > cap + 1e-12:
                return True
        return False

    def _plan_window(self, classification: PairClassification) -> _WindowPlan:
        """Everything of one window's demand weighting no scheme can change.

        Built once per :meth:`run_scenario` and handed down as a value —
        never kept on the engine, because a prefix depends on the
        window's initiator and would go stale at the next scenario.
        """
        by_case: Dict[Tuple[int, int], List[DisruptedPair]] = {}
        for pair in classification.disrupted:
            by_case.setdefault((pair.initiator, pair.destination), []).append(pair)
        pos = self.topo.csr().pos
        index = demand_index(self.topo, self.routing, self.flow_set)
        with obs.span("traffic.intact"):
            intact = _intact_loads(self.topo, index, classification.intact_by_destination)
        crossing: Dict[int, List[DisruptedPair]] = defaultdict(list)
        groups = []
        for key in sorted(by_case):
            initiator, destination = key
            rooted = index.rooted[destination]
            parent, pre, up = rooted.parent, rooted.pre, rooted.up
            stop = pos[initiator]
            pairs = tuple(by_case[key])
            prefixes = []
            for pair in pairs:
                # The surviving default path source -> initiator: every
                # hop of it is in the index, read off the up-link ids.
                prefix = []
                node = pos[pair.source]
                while node != stop:
                    prefix.append(up[pre[node]])
                    node = parent[node]
                prefixes.append(tuple(prefix))
                for lid in prefix:
                    crossing[lid].append(pair)
            groups.append(
                _GroupPlan(
                    key=key,
                    pairs=pairs,
                    prefixes=tuple(prefixes),
                    prefix_lids=tuple(
                        dict.fromkeys(lid for prefix in prefixes for lid in prefix)
                    ),
                    demand=math.fsum(p.demand for p in pairs),
                    flows=sum(p.flows for p in pairs),
                )
            )
        return _WindowPlan(intact=intact, groups=tuple(groups), crossing=crossing)

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
        delivered: Sequence[Tuple[int, ...]],
        loads: LinkLoadMap,
    ) -> TrafficScenarioRecord:
        """Multiply per-case outcomes by their member pairs' traffic.

        ``case_records[i]`` is group ``i``'s outcome and ``delivered[i]``
        the link ids it delivered on; ``loads`` is the window's
        post-recovery load (``plan.loads_after(delivered)``).
        """
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

        for group, record in zip(plan.groups, case_records):
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

        # Surviving pairs keep their default paths.
        summary = loads.summary()
        overloaded = summary.overloaded
        with obs.span("traffic.attribute"):
            attribution = self._attribute_overloads(overloaded, plan, delivered)
        record = TrafficScenarioRecord(
            utilization_hist=summary.histogram,
            overload_attribution=attribution,
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
            max_utilization=summary.max_utilization,
            overloaded_links=len(overloaded),
            overload_demand=summary.overload_demand,
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
        overloaded: Sequence[Tuple[Link, float]],
        plan: _WindowPlan,
        delivered: Sequence[Tuple[int, ...]],
    ) -> Tuple:
        """Top-k overload attribution (empty when nothing is overloaded).

        Each top overloaded link is charged with the rerouted OD demands
        that crossed it: the surviving prefixes (``plan.prefix_charges``,
        shared by every approach of the window) and then the delivered
        recovery paths.  Every charge to a pair adds its same demand, so
        the order of the charges cannot change a sum.  Intact background
        load is not a rerouting decision, so it is not attributed.
        """
        if not overloaded:
            return ()
        csr = self.topo.csr()
        # lid -> {(source, destination): demand} of the top links.
        top: Dict[int, Dict[Tuple[int, int], float]] = {}
        for link, _ in overloaded[:3]:
            lid = csr.pair_lid[link]
            top[lid] = plan.prefix_charges(lid).copy()
        for group, path_lids in zip(plan.groups, delivered):
            if top.keys().isdisjoint(path_lids):
                continue
            for lid in path_lids:
                per_pair = top.get(lid)
                if per_pair is not None:
                    for pair in group.pairs:
                        key = (pair.source, pair.destination)
                        per_pair[key] = per_pair.get(key, 0.0) + pair.demand
        return overload_attribution(
            overloaded, {csr.links[lid]: per_pair for lid, per_pair in top.items()}
        )


def _intact_loads(
    topo: Topology, index: DemandIndex, by_destination: Mapping[int, Mapping[int, float]]
) -> LinkLoadMap:
    """Loads of ``destination -> {source: demand}`` on the default paths.

    Equal, float for float, to :func:`~repro.traffic.capacity.routed_loads`
    on the same input: each destination forwards every place's inflow in
    the index's ``flow_*`` order, which is ``edge_loads_to``'s, and adds
    it straight into the map, destinations in sorted order.  The index
    holds every reached source's chain; one with no intact demand carries
    ``0.0``, and adding ``+0.0`` to a non-negative float changes nothing.
    """
    loads = LinkLoadMap(topo)
    own = loads.lid_loads()
    for destination in sorted(by_destination):
        rooted = index.rooted[destination]
        demands = by_destination[destination]
        carry = [demands.get(source, 0.0) for source in rooted.flow_source]
        carry.append(0.0)  # the root's place: a sink
        flow_next = rooted.flow_next
        for k, lid in enumerate(rooted.flow_up):
            flow = carry[k]
            own[lid] += flow
            carry[flow_next[k]] += flow
    return loads
