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
from typing import List, Optional, Tuple

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
from ..topology.csr import CSRView
from .constraints import CrossLinkState
from .sweep import select_next_hop, sweep_table


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
    #: Wall-clock duration of the walk under the §IV-B hop clock (seconds).
    duration: float
    #: Whether the walk ran to completion.  False only in degraded mode:
    #: the packet was lost in flight, stranded at a node with no live,
    #: non-excluded neighbor, or truncated at its hop budget, so the
    #: collected set may be arbitrarily incomplete.
    complete: bool = True
    #: Why an incomplete walk ended (``None`` when complete).
    incomplete_reason: Optional[str] = None
    #: Packet retransmissions spent before this result was obtained.
    retries: int = 0
    #: The accounting the walk ran on, as it stood when the walk ended.
    accounting: RecoveryAccounting = field(default_factory=RecoveryAccounting)
    #: Where :attr:`field_trace` starts (see :func:`rebuild_field_trace`).
    field_origin: Tuple[int, int, tuple, tuple, int] = (0, 0, (), (), 0)

    @property
    def header_timeline(self) -> List[Tuple[float, int]]:
        """Per-hop ``(time, recovery_header_bytes)`` samples."""
        return self.accounting.header_timeline

    @property
    def field_trace(self) -> List[tuple]:
        """Per-hop header snapshots ``(node, failed_links, cross_links)`` —
        the two fields at each hop, as the paper's Table I tabulates them."""
        return rebuild_field_trace(
            self.accounting.header_log, self.field_origin, self.walk
        )

    def all_known_failed_links(self) -> List[Link]:
        """Collected plus locally known failed links — the set ``E1``."""
        return list(self.collected_failed_links) + [
            link
            for link in self.local_failed_links
            if link not in self.collected_failed_links
        ]


def rebuild_field_trace(
    header_log: List[tuple], origin: Tuple[int, int, tuple, tuple, int], walk: List[int]
) -> List[tuple]:
    """Replay a walk's header log into one ``(node, failed, crossed)`` per snapshot.

    ``origin`` is the ``(log index, hop count, failed_link field,
    cross_link field)`` of the walk's start and its snapshot count; a change
    logged at hop count ``first_hop + i`` is in the snapshot at ``walk[i]``.
    """
    start, first_hop, failed, crossed, snapshots = origin
    fields = {"failed_links": list(failed), "cross_links": list(crossed)}
    trace: List[tuple] = []
    k, end = start, len(header_log)
    for i, node in enumerate(walk[:snapshots]):
        changed = False
        while k < end and header_log[k][0] - first_hop <= i:
            change = header_log[k][3]
            k += 1
            entries = change and fields.get(change[0])
            if entries is not None:
                changed = True
                if change[1] is None:
                    entries.pop()
                else:
                    entries.append(change[1])
        if changed:
            failed = tuple(fields["failed_links"])
            crossed = tuple(fields["cross_links"])
        trace.append((node, failed, crossed))
    return trace


class _FailedLinkField:
    """The ``failed_link`` header field of one walk, by link id (§III-C item 2).

    ``flags`` marks the field's links and the initiator's own, which it
    already knows; ``order`` lists the field's ids, so :meth:`sync` can
    clear the flags of entries a chaos truncation popped.
    """

    __slots__ = ("flags", "order", "header", "links", "accounting")

    def __init__(self, csr: CSRView, initiator: int, header, accounting) -> None:
        flags = self.flags = bytearray(csr.lid_size)
        u = csr.pos[initiator]
        for lid in csr.lid[csr.indptr[u] : csr.indptr[u + 1]]:
            flags[lid] = 1
        self.order = [csr.pair_lid[link] for link in header.failed_links]
        for lid in self.order:
            flags[lid] = 1
        self.header, self.links, self.accounting = header, csr.links, accounting

    def record(self, lid: int) -> None:
        """Append link ``lid`` (not flagged) to the field."""
        self.flags[lid] = 1
        self.order.append(lid)
        link = self.links[lid]
        self.header.failed_links.append(link)
        self.accounting.carry(self.header.recovery_bytes(), ("failed_links", link))

    def sync(self) -> None:
        """Clear the flags of the entries a truncation removed."""
        order, flags = self.order, self.flags
        while len(order) > len(self.header.failed_links):
            flags[order.pop()] = 0


@dataclass
class SweepWalkSpec:
    """The phase-1 walk of ``initiator``, whose first hop is ``start_hop``.

    Each hop records the current node's failed links, sweeps from the
    previous hop (skipping links the ``cross_link`` state excludes, when
    ``constraints`` is set) and transmits.  The walk has ``reached`` its
    end when it is back at the initiator and the sweep would re-select
    ``start_hop``; a lost packet, an exhausted ``budget`` or a node with no
    live, non-excluded neighbor ends it short.  ``strict`` raises on those;
    otherwise the outcome reports them.

    A hop pays for the sweep step, the Constraint 2 check and the move;
    header entries go to the accounting's log as they are appended.
    """

    initiator: int
    start_hop: int
    constraints: Optional[CrossLinkState]
    clockwise: bool
    budget: int
    strict: bool = True
    #: ``(log index, hop count, failed_link field, cross_link field)`` when
    #: the last walk began (set by :meth:`walk`; see :func:`rebuild_field_trace`).
    origin: Tuple[int, int, tuple, tuple] = (0, 0, (), ())

    def walk(
        self, engine: ForwardingEngine, packet: Packet, accounting: RecoveryAccounting
    ) -> WalkOutcome:
        obs.inc("simulator.walks.executed")
        view, header = engine.view, packet.header
        initiator, start_hop, clockwise = self.initiator, self.start_hop, self.clockwise
        constraints = self.constraints
        table = sweep_table(engine.topo)
        csr = table.csr
        step, links = table.step, csr.links
        if constraints is not None:
            barred, after_selection = constraints.barred, constraints.after_selection
        else:
            barred, after_selection = csr.no_links, None
        failed_lids, lose, hop = view.failed_lids, engine.lose, engine.forward_one_hop
        truncating = engine.after_hop is not None
        failed = _FailedLinkField(csr, initiator, header, accounting)
        recorded = failed.flags
        accounting.carry(header.recovery_bytes())
        self.origin = (
            len(accounting.header_log),
            accounting.hops_traveled,
            tuple(header.failed_links),
            tuple(header.cross_links),
        )

        visited = [packet.at]
        # Each hop sweeps from the link the packet arrived on, so the link
        # id travels with the walk: only the first hop looks its id up.
        previous, next_node = None, start_hop
        lid = csr.pair_lid[(packet.at, start_hop)]
        for _ in range(self.budget):
            current = packet.at
            for failed_lid in failed_lids(current):
                if not recorded[failed_lid]:
                    failed.record(failed_lid)
            if previous is not None:
                hit = step(view, current, previous, lid, barred, clockwise)
                if hit is None:
                    # Every link out of here failed after the packet came
                    # in (a sender that missed a failure forwarded into it,
                    # or a secondary failure): the walk cannot go on.
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
                next_node, lid = hit
                # §III-C item 3: back at the initiator, stop when the sweep
                # would re-select the first hop; elsewhere keep going so no
                # node on the cycle is missed.
                if current == initiator and next_node == start_hop:
                    return WalkOutcome(visited=visited, reached=True)
            link = links[lid]
            if after_selection is not None and after_selection(lid):
                accounting.carry(header.recovery_bytes(), ("cross_links", link))
            previous = current
            if lose is not None:
                reason = lose(packet, link, accounting)
                if reason is not None:
                    if self.strict:
                        raise SimulationError(
                            f"phase-1 packet of {initiator} lost at {current}: {reason}"
                        )
                    return WalkOutcome(
                        visited=visited,
                        reached=False,
                        lost=True,
                        drop_node=current,
                        drop_reason=reason,
                    )
            hop(packet, next_node, link, accounting)
            if truncating:
                failed.sync()
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
    barred = None
    if use_constraints:
        constraints = CrossLinkState(topo, header)
        constraints.seed_initiator_links(view, initiator)
        barred = constraints.barred

    local_failed = view.locally_failed_links(initiator)

    start_hop = select_next_hop(
        topo, view, initiator, trigger_neighbor, barred, clockwise
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
        complete=outcome.reached,
        incomplete_reason=outcome.drop_reason,
        accounting=accounting.copy(),
        # Every visited node has a snapshot but the last of a budget cut.
        field_origin=spec.origin + (len(outcome.visited) - outcome.truncated,),
    )
