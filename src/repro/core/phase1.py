"""RTR phase 1: collecting failure information (§III-B, §III-C).

A data packet is forwarded around the failure area by the right-hand
sweeping rule; every visited router records its locally detected failed
links in the ``failed_link`` header field (skipping links the initiator
already knows, i.e. those incident to the initiator); the walk ends when
the packet is back at the initiator and the sweep would re-select the
first hop.

The walk runs once per initiator and its result serves every affected
destination (§III-A).  It is a :class:`SweepWalkSpec`: plain data plus
one hop loop, run by the walk plane like every other spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .. import obs
from ..errors import ForwardingLoopError, SimulationError
from ..failures import LocalView
from ..simulator import (
    ForwardingEngine,
    Mode,
    Packet,
    RecoveryAccounting,
    RecoveryHeader,
    WalkBatch,
    WalkOutcome,
    walk_hop_budget,
)
from ..topology import Link, Topology
from .constraints import CrossLinkState
from .sweep import select_next_hop


@dataclass
class Phase1Result:
    """Everything the initiator knows when its phase-1 walk finishes."""

    initiator: int
    #: Node sequence of the walk, starting and ending at the initiator
    #: (just ``[initiator]`` when the initiator has no live neighbor).
    walk: List[int]
    #: Failed links recorded in the ``failed_link`` header field, in order.
    collected_failed_links: List[Link]
    #: Final contents of the ``cross_link`` header field, in order.
    cross_links: List[Link]
    #: Links to the initiator's unreachable neighbors (known locally,
    #: deliberately *not* recorded in the header — §III-B item 3).
    local_failed_links: List[Link]
    #: Hop count of the walk.
    hops: int
    #: Wall-clock duration of the walk under the delay model (seconds).
    duration: float
    #: Per-hop ``(time, recovery_header_bytes)`` samples.
    header_timeline: List[tuple] = field(default_factory=list)
    #: Per-hop header snapshots ``(node, failed_links, cross_links)`` —
    #: the contents of the two fields at each hop, exactly as the paper's
    #: Table I tabulates them.
    field_trace: List[tuple] = field(default_factory=list)
    #: Whether the walk ran to completion.  False only in degraded mode:
    #: the packet was lost in flight, stranded at a node with no live,
    #: non-excluded neighbor, or truncated at its hop budget, so the
    #: collected set may be arbitrarily incomplete.
    complete: bool = True
    #: Why an incomplete walk ended (``None`` when complete).
    incomplete_reason: Optional[str] = None
    #: Packet retransmissions spent before this result was obtained.
    retries: int = 0

    def all_known_failed_links(self) -> List[Link]:
        """Collected plus locally known failed links — the set ``E1``."""
        return list(self.collected_failed_links) + [
            link
            for link in self.local_failed_links
            if link not in self.collected_failed_links
        ]


def _record_failures_at(
    node: int,
    initiator: int,
    view: LocalView,
    header: RecoveryHeader,
) -> None:
    """§III-C item 2: record this node's locally detected failed links.

    The initiator's own incident failures are skipped — the initiator
    already knows them, so carrying them would waste header bytes.
    """
    if node == initiator:
        return
    for neighbor in view.unreachable_neighbors(node):
        link = Link.of(node, neighbor)
        if initiator in (link.u, link.v):
            continue
        header.record_failed(link)


@dataclass
class SweepWalkSpec:
    """The phase-1 walk of ``initiator``, whose first hop is ``start_hop``.

    Each hop records the current node's failed links, sweeps from the
    previous hop (skipping links the ``cross_link`` state excludes, when
    ``constraints`` is set) and transmits.  The walk has ``reached`` its
    end when it is back at the initiator and the sweep would re-select
    ``start_hop``; a lost packet, an exhausted ``budget`` or a node with no
    live, non-excluded neighbor ends it short.  ``strict`` raises on those;
    otherwise the outcome reports them.  ``field_trace`` collects the
    per-hop header snapshots of :attr:`Phase1Result.field_trace`.
    """

    initiator: int
    start_hop: int
    constraints: Optional[CrossLinkState]
    clockwise: bool
    budget: int
    strict: bool = True
    field_trace: List[tuple] = field(default_factory=list)

    def walk(
        self, engine: ForwardingEngine, packet: Packet, accounting: RecoveryAccounting
    ) -> WalkOutcome:
        obs.inc("simulator.walks.executed")
        topo, view, header = engine.topo, engine.view, packet.header
        initiator, constraints = self.initiator, self.constraints
        exclusion = constraints.is_excluded if constraints is not None else None
        pair_lid = topo.csr().pair_lid
        field_trace = self.field_trace
        # The header fields of the last snapshot: a field whose length and
        # last entry are unchanged since then is unchanged, so its tuple is
        # reused.  Between two snapshots a field takes at most one chaos
        # truncation (one per forwarded hop), and it comes before any
        # append: equal length then means nothing changed or the popped
        # entry came back.
        failed, crossed = (), ()

        def snapshot(node: int) -> None:
            nonlocal failed, crossed
            failed = _reuse(header.failed_links, failed)
            crossed = _reuse(header.cross_links, crossed)
            field_trace.append((node, failed, crossed))

        visited = [packet.at]
        previous, next_node = None, self.start_hop
        for _ in range(self.budget):
            current = packet.at
            _record_failures_at(current, initiator, view, header)
            if previous is not None:
                next_node = select_next_hop(
                    topo, view, current, previous, exclusion, self.clockwise
                )
                # §III-C item 3: back at the initiator, stop when the sweep
                # would re-select the first hop; elsewhere keep going so no
                # node on the cycle is missed.
                if current == initiator and next_node == self.start_hop:
                    snapshot(current)
                    return WalkOutcome(visited=visited, reached=True)
                if next_node is None:
                    # Every link out of here failed after the packet came
                    # in (a sender that missed a failure forwarded into it,
                    # or a secondary failure): the walk cannot go on.
                    snapshot(current)
                    reason = (
                        f"phase-1 walk of {initiator} stranded at {current}: "
                        f"no live, non-excluded neighbor"
                    )
                    if self.strict:
                        raise SimulationError(reason)
                    return WalkOutcome(
                        visited=visited,
                        reached=False,
                        drop_node=current,
                        drop_reason=reason,
                    )
            if constraints is not None:
                constraints.after_selection(pair_lid[(current, next_node)])
            previous = current
            snapshot(current)
            reason = engine.transmit(packet, next_node, accounting)
            if reason is not None:
                if self.strict:
                    raise SimulationError(
                        f"phase-1 packet of {initiator} lost at {packet.at}: {reason}"
                    )
                return WalkOutcome(
                    visited=visited,
                    reached=False,
                    lost=True,
                    drop_node=packet.at,
                    drop_reason=reason,
                )
            visited.append(next_node)
        reason = f"walk exceeded {self.budget} hops without terminating"
        if self.strict:
            raise ForwardingLoopError(reason, visited)
        return WalkOutcome(
            visited=visited,
            reached=False,
            truncated=True,
            drop_node=packet.at,
            drop_reason=reason,
        )


def _reuse(entries: List[Link], before: tuple) -> tuple:
    if len(entries) == len(before) and (not entries or entries[-1] == before[-1]):
        return before
    return tuple(entries)


def run_phase1(
    topo: Topology,
    view: LocalView,
    initiator: int,
    trigger_neighbor: int,
    engine: ForwardingEngine,
    accounting: Optional[RecoveryAccounting] = None,
    use_constraints: bool = True,
    clockwise: bool = False,
    strict: bool = True,
) -> Phase1Result:
    """Run the failure-information collection walk from ``initiator``.

    ``trigger_neighbor`` is the unreachable default next hop whose loss
    invoked RTR — it anchors the initiator's first sweeping line.
    ``use_constraints=False`` disables the §III-C cross-link constraints
    (the DESIGN.md ablation that reproduces the Fig. 4/5 disorders).
    ``strict=False`` (degraded mode) turns a lost packet or an exhausted
    hop budget into an ``complete=False`` result instead of an exception,
    so the caller can retry with backoff or fall back.
    """
    if view.is_neighbor_reachable(initiator, trigger_neighbor):
        raise SimulationError(
            f"phase 1 invoked at {initiator} but trigger neighbor "
            f"{trigger_neighbor} is reachable"
        )
    accounting = accounting if accounting is not None else RecoveryAccounting()

    header = RecoveryHeader(mode=Mode.COLLECTING, rec_init=initiator)
    packet = Packet(source=initiator, destination=initiator, header=header)
    constraints = None
    exclusion = None
    if use_constraints:
        constraints = CrossLinkState(topo, header)
        constraints.seed_initiator_links(view, initiator)
        exclusion = constraints.is_excluded

    local_failed = [Link.of(initiator, nb) for nb in view.unreachable_neighbors(initiator)]

    start_hop = select_next_hop(
        topo, view, initiator, trigger_neighbor, exclusion, clockwise
    )
    if start_hop is None:
        # Isolated initiator: nothing to collect, the walk is empty.
        return Phase1Result(
            initiator=initiator,
            walk=[initiator],
            collected_failed_links=[],
            cross_links=list(header.cross_links),
            local_failed_links=local_failed,
            hops=0,
            duration=0.0,
        )

    spec = SweepWalkSpec(
        initiator=initiator,
        start_hop=start_hop,
        constraints=constraints,
        clockwise=clockwise,
        budget=walk_hop_budget(topo.link_count),
        strict=strict,
    )
    batch = WalkBatch(engine)
    batch.add(spec, packet, accounting)
    outcome = batch.execute()
    return Phase1Result(
        initiator=initiator,
        walk=outcome.visited,
        collected_failed_links=list(header.failed_links),
        cross_links=list(header.cross_links),
        local_failed_links=local_failed,
        hops=len(outcome.visited) - 1,
        duration=accounting.clock,
        header_timeline=list(accounting.header_timeline),
        field_trace=spec.field_trace,
        complete=outcome.reached,
        incomplete_reason=outcome.drop_reason,
    )
