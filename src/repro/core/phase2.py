"""RTR phase 2: recomputation and source-routed rerouting (§III-D).

The initiator removes the collected failed links (plus its own locally
detected ones) from its view of the topology, computes the new shortest
path to the destination, and forwards packets along it via source routing.
Two recomputation engines are provided:

* **incremental** (the paper's choice, Narvaez et al.): update the
  initiator's pre-failure shortest-path tree by deleting the failed links —
  one update serves *every* destination;
* **full**: a fresh Dijkstra per initiator on ``G - E1``.

Both count as one shortest-path calculation in the §IV-C accounting and
produce identical distances (asserted by tests).

Because phase 1 may miss failures hidden inside the area, the computed
route can still contain a failed element; the packet is then simply
discarded at the node that detects it (§III-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Set

from .. import obs
from ..routing import (
    Path,
    PreFailureTree,
    ShortestPathTree,
    SPTCache,
    penalized_shortest_path_tree,
    updated_tree,
)
from ..simulator import Mode, Packet, RecoveryAccounting, RecoveryHeader
from ..topology import Link, Topology
from .phase1 import Phase1Result


@dataclass
class Phase2Result:
    """Outcome of one phase-2 delivery attempt."""

    #: The computed recovery path (None when the destination appears
    #: unreachable in ``G - E1`` and packets are discarded at the initiator).
    route: Optional[Path]
    #: Whether the packet reached the destination.
    delivered: bool
    #: Node that discarded the packet (initiator when no route was found).
    drop_node: Optional[int]
    #: Hops actually traveled along the route before delivery/drop.
    hops_traveled: int
    #: Recovery header bytes carried by the source-routed packet.
    route_header_bytes: int
    #: Whether the drop was an injected packet loss (retransmittable)
    #: rather than the route containing a failure phase 1 missed.
    lost: bool = False


class Phase2Engine:
    """Per-initiator recovery-path computation with caching (§III-D).

    One instance belongs to one recovery initiator.  The first query pays
    one shortest-path calculation (the §IV metric); subsequent destinations
    are served from the cached tree — "by caching the recovery paths, the
    recovery initiator needs to calculate the shortest path only once for
    each destination affected by failures".
    """

    def __init__(
        self,
        topo: Topology,
        initiator: int,
        phase1: Phase1Result,
        use_incremental: bool = True,
        cache: Optional[SPTCache] = None,
        penalty=None,
    ) -> None:
        self.topo = topo
        self.initiator = initiator
        self.phase1 = phase1
        self.use_incremental = use_incremental
        #: Tree pool (a private one unless a shared one is passed in); the
        #: pre-failure SPT in particular is identical across every scenario
        #: of a sweep.  ``sp_computations`` below is the §IV *recorded*
        #: charge and is unaffected by cache hits.
        self.cache = cache if cache is not None else SPTCache()
        #: Optional (live) :class:`repro.te.penalty.LinkPenalty`.  When
        #: set (congestion-aware mode), recomputation minimizes the
        #: load-penalized metric instead of the base metric; recovery
        #: paths are re-costed back to base before leaving this engine.
        self.penalty = penalty
        self.known_failed: Set[Link] = set(phase1.all_known_failed_links())
        self._tree: Optional[ShortestPathTree] = None
        #: Shortest-path calculations actually performed (1 after first use).
        self.sp_computations = 0

    def _compute_tree(self) -> ShortestPathTree:
        if self.penalty is not None and not self.penalty.is_null():
            # Congestion-aware recomputation is always a fresh penalized
            # sweep: penalties vary per decision, so neither the shared
            # pre-failure tree pool nor the incremental update applies.
            return penalized_shortest_path_tree(
                self.topo,
                self.initiator,
                self.penalty.lid_units(self.topo),
                self.penalty.quant,
                excluded_links=self.known_failed,
            )
        if self.use_incremental:
            # The initiator already has its pre-failure SPT from normal
            # link-state operation; only the incremental update is the
            # on-demand recovery computation.  The update builds that tree
            # only where it reads it (not on numpy views).
            build = partial(self.cache.forward_tree, self.topo, self.initiator)
            pre_failure = PreFailureTree(self.initiator, False, build)
            return updated_tree(self.topo, pre_failure, removed_links=self.known_failed)
        return self.cache.forward_tree(
            self.topo, self.initiator, excluded_links=self.known_failed
        )

    def tree(self) -> ShortestPathTree:
        """The post-failure SPT on ``G - E1`` (computed once, cached)."""
        if self._tree is None:
            if obs.enabled():
                with obs.span("rtr.phase2.tree", initiator=self.initiator):
                    self._tree = self._compute_tree()
                obs.inc("rtr.phase2.tree_builds")
            else:
                self._tree = self._compute_tree()
            self.sp_computations += 1
        return self._tree

    def recovery_path(self, destination: int) -> Optional[Path]:
        """The shortest path initiator -> destination in ``G - E1``.

        Under a penalty snapshot the *selection* minimizes the penalized
        metric but the returned path is re-costed in the base metric, so
        stretch and Table III comparisons stay apples-to-apples.
        """
        tree = self.tree()
        if not tree.reaches(destination):
            return None
        path = tree.path_from(destination)
        if self.penalty is not None and not self.penalty.is_null():
            from ..te.penalty import recost_path

            path = recost_path(self.topo, path)
        return path

    def learn_failed_link(self, link: Link) -> bool:
        """Add a failure discovered *after* phase 1 to ``E1`` (§III-D ext.).

        When a phase-2 packet is discarded at a node whose next route hop
        turned out to be failed, the initiator can learn exactly that link
        from the drop notification and re-invoke the recomputation.
        Returns False (and changes nothing) when the link was already
        known — re-invoking then could never produce a different route.
        """
        if link in self.known_failed:
            return False
        self.known_failed.add(link)
        self._tree = None
        return True


def compile_phase2_delivery(phase2: Phase2Engine, destination: int):
    """Compile the delivery attempt: ``(route, header, packet)``.

    The decision half of the phase-2 walk — everything up to (but not
    including) moving the packet.  ``route`` is ``None`` when the
    destination is unreachable in ``G - E1`` (§II-C early discard).
    """
    route = phase2.recovery_path(destination)
    if route is None:
        return None, None, None
    header = RecoveryHeader(
        mode=Mode.SOURCE_ROUTED,
        rec_init=phase2.initiator,
        source_route=list(route.nodes),
    )
    packet = Packet(
        source=phase2.initiator, destination=destination, header=header
    )
    return route, header, packet


def no_route_result(phase2: Phase2Engine) -> Phase2Result:
    """Discard at the initiator (§II-C — die early when unreachable)."""
    return Phase2Result(
        route=None,
        delivered=False,
        drop_node=phase2.initiator,
        hops_traveled=0,
        route_header_bytes=0,
    )


def phase2_result_from_outcome(
    route: Path,
    header: RecoveryHeader,
    hops_before: int,
    accounting: RecoveryAccounting,
    outcome,
) -> Phase2Result:
    """Fold a walk-plane :class:`RouteOutcome` into a :class:`Phase2Result`."""
    return Phase2Result(
        route=route,
        delivered=outcome.delivered,
        drop_node=outcome.drop_node,
        hops_traveled=accounting.hops_traveled - hops_before,
        route_header_bytes=header.recovery_bytes(),
        lost=outcome.lost,
    )

