"""R3-style protection routing: precompute offline, reconfigure online.

The R3 line of work (*Resilient Routing Reconfiguration*, and its
wireless successor in PAPERS.md) handles failures with **precomputed
protection routing**: offline, a protection route is planned for every
link against a *virtual demand* — the traffic that link would have to
shed if it failed — so that the union of protection routes is planned
against capacity, not just hop count; online, a router that detects a
failed adjacency *reconfigures* by splicing the precomputed detour into
the forwarding path — a linear combination of precomputed routes, no
re-optimization, no on-demand shortest-path computation.

This scheme reproduces that shape on the repository's lifecycle:

* :meth:`R3Scheme._prepare` (once per topology) plans one detour per
  link in deterministic order (largest capacity first): the shortest
  ``u -> v`` path in ``G - e`` under the load-penalized metric of
  :mod:`repro.te.penalty`, where the load is the *virtual* protection
  demand already planned onto each link — successive detours spread
  around links that earlier detours loaded, which is what bounds
  post-recovery congestion;
* :meth:`R3Scheme._instantiate` (once per convergence window) hands the
  scheme's ``fault_plan`` to the protocol, which builds its view and
  forwarding engine with :func:`~repro.chaos.forwarding_world` like
  every other walking scheme;
* ``recover`` (once per case) splices detours into the pre-failure
  default path — recursively up to ``r3_k`` nested failures, with a
  cycle guard — compresses transient loops, and source-routes the
  result through the engine.  Zero on-demand SP calculations are
  charged, mirroring R3's no-reoptimization claim.

A detour may not exist (bridge links) and nested failures may exhaust
the ``r3_k`` budget — those cases drop at the initiator, which is the
honest cost of purely precomputed protection versus RTR's reactive
recomputation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .. import obs
from ..chaos import FaultPlan, forwarding_world
from ..errors import SimulationError
from ..routing import Path, RoutingTable, penalized_shortest_path_tree
from ..simulator import (
    Mode,
    Packet,
    RecoveryAccounting,
    RecoveryHeader,
    RecoveryResult,
    SourceRouteSpec,
    WalkPlan,
    run_plan,
)
from ..te.penalty import (
    DEFAULT_PENALTY_ALPHA,
    DEFAULT_PENALTY_EXPONENT,
    DEFAULT_UTILIZATION_CLIP,
    PENALTY_QUANT,
    LinkPenalty,
    penalty_units,
    recost_path,
)
from ..topology import Link, Topology
from .base import RecoveryScheme, SchemeInstance
from .registry import register_scheme

if TYPE_CHECKING:
    from ..failures import FailureScenario

log = obs.get_logger(__name__)

#: Default nesting budget: how many protection detours may stack when a
#: detour itself crosses failed links (R3's up-to-k failure coverage).
DEFAULT_R3_K = 3


def _strip_loops(nodes: List[int]) -> List[int]:
    """Compress transient loops a nested splice can introduce.

    Walk-preserving: when a node reappears, the walk unwinds to its
    first visit; the successor hop was an adjacent, live hop of the
    original walk, so the compressed sequence stays a valid simple walk.
    """
    out: List[int] = []
    pos: Dict[int, int] = {}
    for node in nodes:
        if node in pos:
            for removed in out[pos[node] + 1 :]:
                del pos[removed]
            del out[pos[node] + 1 :]
        else:
            pos[node] = len(out)
            out.append(node)
    return out


class _R3Protocol:
    """One convergence window of protection routing (no re-optimization)."""

    def __init__(
        self,
        topo: Topology,
        scenario: "FailureScenario",
        routing: RoutingTable,
        detours: Dict[Link, Tuple[int, ...]],
        bypasses: Dict[Tuple[int, int, int], Tuple[int, ...]],
        max_depth: int,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.topo = topo
        self.scenario = scenario
        self.routing = routing
        self.detours = detours
        self.bypasses = bypasses
        self.max_depth = max_depth
        self.view, self.engine = forwarding_world(topo, scenario, fault_plan)

    def _splice(
        self, segment: Tuple[int, ...], start: int, depth: int, protecting: frozenset
    ) -> Optional[List[int]]:
        """Expand a precomputed segment oriented to begin at ``start``."""
        oriented = segment if segment[0] == start else tuple(reversed(segment))
        return self._protected_route(list(oriented), depth, protecting)

    def _protected_route(
        self, nodes: List[int], depth: int, protecting: frozenset
    ) -> Optional[List[int]]:
        """Expand a path by splicing precomputed protection over failed hops.

        Per failed hop ``a -> b``: first the link detour (``a ~~> b`` in
        ``G - ab``), and when that cannot be expanded — ``b`` itself is
        typically dead, so every detour ending at ``b`` dies with it —
        the node bypass ``a ~~> c`` in ``G - b`` toward the next waypoint
        ``c`` of the current segment.  Both kinds are precomputed; online
        work is pure splicing.
        """
        out = [nodes[0]]
        i = 0
        while i < len(nodes) - 1:
            a, b = nodes[i], nodes[i + 1]
            if self.view.is_neighbor_reachable(a, b):
                out.append(b)
                i += 1
                continue
            link = Link.of(a, b)
            if depth <= 0 or link in protecting:
                return None
            blocked = protecting | {link}
            detour = self.detours.get(link)
            if detour is not None:
                spliced = self._splice(detour, a, depth - 1, blocked)
                if spliced is not None:
                    out.extend(spliced[1:])
                    i += 1
                    continue
            if i + 2 < len(nodes):
                c = nodes[i + 2]
                key = (b, a, c) if a < c else (b, c, a)
                bypass = self.bypasses.get(key)
                if bypass is not None:
                    spliced = self._splice(bypass, a, depth - 1, blocked)
                    if spliced is not None:
                        out.extend(spliced[1:])
                        i += 2  # the bypass already landed at ``c``
                        continue
            return None
        return out

    def recover(
        self, initiator: int, destination: int, trigger_neighbor: int
    ) -> RecoveryResult:
        return run_plan(
            self.engine, self.plan_recovery(initiator, destination, trigger_neighbor)
        )

    def plan_recovery(
        self, initiator: int, destination: int, trigger_neighbor: int
    ) -> WalkPlan:
        """Compile one case: splice precomputed protection, emit the route."""
        if not self.scenario.is_node_live(initiator):
            raise SimulationError(f"recovery initiator {initiator} has failed")
        accounting = RecoveryAccounting()
        base = self.routing.path(initiator, destination)
        if base is None:
            raise SimulationError(
                f"{initiator} has no pre-failure route toward {destination}"
            )
        expanded = self._protected_route(
            list(base.nodes), self.max_depth, frozenset()
        )
        if expanded is None:
            # No protection covers this failure pattern: the packet is
            # discarded at the initiator (early discard, zero waste).
            obs.inc("r3.unprotected")
            return WalkPlan(
                immediate=RecoveryResult(
                    approach=R3Scheme.name,
                    delivered=False,
                    path=None,
                    accounting=accounting,
                )
            )
        nodes = _strip_loops(expanded)
        route = recost_path(self.topo, Path(tuple(nodes), 0.0))
        header = RecoveryHeader(
            mode=Mode.SOURCE_ROUTED,
            rec_init=initiator,
            source_route=list(nodes),
        )
        packet = Packet(
            source=initiator, destination=destination, header=header
        )

        def finish(outcome) -> RecoveryResult:
            obs.inc("r3.reconfigurations")
            if outcome.delivered:
                obs.inc("r3.delivered")
            return RecoveryResult(
                approach=R3Scheme.name,
                delivered=outcome.delivered,
                path=route if outcome.delivered else None,
                accounting=accounting,
                drop_hops=0 if outcome.delivered else accounting.hops_traveled,
                drop_packet_bytes=0
                if outcome.delivered
                else header.recovery_bytes(),
            )

        return WalkPlan(
            spec=SourceRouteSpec(route=list(nodes)),
            packet=packet,
            accounting=accounting,
            finish=finish,
        )


@register_scheme
class R3Scheme(RecoveryScheme):
    """R3-style protection routing: offline virtual-demand detours, online splicing."""

    name = "r3"

    def __init__(
        self,
        r3_k: int = DEFAULT_R3_K,
        r3_alpha: float = DEFAULT_PENALTY_ALPHA,
        r3_exponent: float = DEFAULT_PENALTY_EXPONENT,
        **options: object,
    ) -> None:
        super().__init__(**options)
        if r3_k < 1:
            raise ValueError(f"r3_k must be >= 1, got {r3_k}")
        self.r3_k = r3_k
        self.r3_alpha = r3_alpha
        self.r3_exponent = r3_exponent
        #: link -> protection detour node sequence (u ... v), planned once
        #: per topology in :meth:`_prepare`.
        self.detours: Dict[Link, Tuple[int, ...]] = {}
        #: (failed node b, a, c) with ``a < c`` -> bypass ``a ... c`` in
        #: ``G - b`` — node protection for the regional failures of the
        #: paper, where a detour ending at a dead node is no protection.
        self.bypasses: Dict[Tuple[int, int, int], Tuple[int, ...]] = {}

    def _prepare(self) -> None:
        """Plan one protection detour per link against virtual demand.

        Links are planned in (capacity desc, link asc) order — the links
        that shed the most traffic when they fail pick their detours
        first.  Each link's virtual demand (its capacity: the worst load
        it could shed) is committed onto its detour, and later detours
        see that commitment through the penalized metric — protection
        routes spread instead of stacking.  On an unprovisioned topology
        every capacity defaults to 1.0 and the planning degenerates to
        plain shortest detours.
        """
        topo = self.topo
        assert topo is not None
        with obs.span("r3.prepare"):
            csr = topo.csr()
            links = sorted(topo.links())
            capacity = {
                link: topo.link_capacity(link) or 1.0 for link in links
            }
            order = sorted(links, key=lambda l: (-capacity[l], l))
            lid_units = [0] * csr.lid_size
            virtual = [0.0] * csr.lid_size
            planned = 0
            for link in order:
                tree = penalized_shortest_path_tree(
                    topo,
                    link.u,
                    lid_units,
                    PENALTY_QUANT,
                    excluded_links={link},
                    target=link.v,
                )
                if not tree.reaches(link.v):
                    continue  # bridge link: no protection exists
                detour = tree.path_from(link.v)
                self.detours[link] = tuple(detour.nodes)
                planned += 1
                for a, b in detour.hops():
                    lid = csr.pair_lid[(a, b)]
                    virtual[lid] += capacity[link]
                    lid_units[lid] = penalty_units(
                        virtual[lid] / capacity[Link.of(a, b)],
                        self.r3_alpha,
                        self.r3_exponent,
                        DEFAULT_UTILIZATION_CLIP,
                        PENALTY_QUANT,
                    )
            # Node bypasses, planned against the committed virtual load
            # (no further accumulation: they are an alternative to the
            # link detours, not additional demand).  One early-exit sweep
            # per neighbor pair of each node — r3's offline planning is
            # deliberately heavy; online stays splice-only.
            for b in sorted(topo.nodes()):
                neighbors = sorted(topo.neighbors(b))
                if len(neighbors) < 2:
                    continue
                around_b = {Link.of(b, nb) for nb in neighbors}
                for a_i, a in enumerate(neighbors):
                    for c in neighbors[a_i + 1 :]:
                        tree = penalized_shortest_path_tree(
                            topo,
                            a,
                            lid_units,
                            PENALTY_QUANT,
                            excluded_links=around_b,
                            target=c,
                        )
                        if not tree.reaches(c):
                            continue
                        self.bypasses[(b, a, c)] = tuple(
                            tree.path_from(c).nodes
                        )
        obs.inc("r3.detours.planned", planned)
        obs.inc("r3.bypasses.planned", len(self.bypasses))
        log.info(
            "r3 planned %d/%d protection detours and %d node bypasses",
            planned,
            len(links),
            len(self.bypasses),
        )

    def _instantiate(
        self, scenario: "FailureScenario", penalty: Optional["LinkPenalty"]
    ) -> SchemeInstance:
        assert self.topo is not None and self.routing is not None
        return SchemeInstance(
            self.name,
            _R3Protocol(
                self.topo,
                scenario,
                self.routing,
                self.detours,
                self.bypasses,
                self.r3_k,
                fault_plan=self.fault_plan,
            ),
        )
