"""RTR phase 1: collecting failure information (§III-B, §III-C).

A data packet is forwarded around the failure area by the right-hand
sweeping rule; every visited router records its locally detected failed
links in the ``failed_link`` header field (skipping links the initiator
already knows, i.e. those incident to the initiator); the walk ends when
the packet is back at the initiator and the sweep would re-select the
first hop.

The walk runs once per initiator and its result serves every affected
destination (§III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import SimulationError
from ..failures import LocalView
from ..simulator import (
    ForwardingEngine,
    Mode,
    Packet,
    RecoveryAccounting,
    RecoveryHeader,
    WalkBatch,
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
    #: the packet was lost in flight or the walk was truncated at its hop
    #: budget, so the collected set may be arbitrarily incomplete.
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
    constraints = CrossLinkState(topo, header)
    if use_constraints:
        constraints.seed_initiator_links(view, initiator)
    exclusion = constraints.is_excluded if use_constraints else None

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

    previous = {"node": initiator}
    done = {"flag": False}
    field_trace: List[tuple] = []

    def snapshot(node: int) -> None:
        field_trace.append(
            (node, tuple(header.failed_links), tuple(header.cross_links))
        )

    def decide(current: int, pkt: Packet) -> Optional[int]:
        if done["flag"]:
            return None
        _record_failures_at(current, initiator, view, pkt.header)
        if current == initiator and pkt.recovery_hops == 0:
            # Initial transmission toward the already-selected first hop.
            if use_constraints:
                constraints.after_selection(Link.of(initiator, start_hop))
            previous["node"] = current
            snapshot(current)
            return start_hop
        next_node = select_next_hop(
            topo, view, current, previous["node"], exclusion, clockwise
        )
        if next_node is None:
            # Unreachable in theory (previous hop always qualifies); be safe.
            snapshot(current)
            return None
        if current == initiator:
            # §III-C item 3: back at the initiator — stop when the sweep
            # would re-select the first hop, otherwise keep going so no
            # node on the cycle is missed.
            if next_node == start_hop:
                done["flag"] = True
                snapshot(current)
                return None
        if use_constraints:
            constraints.after_selection(Link.of(current, next_node))
        previous["node"] = current
        snapshot(current)
        return next_node

    # The sweep mutates header/constraint state every hop, so it compiles
    # to an opaque callback spec.
    batch = WalkBatch(engine)
    handle = batch.add_callback_walk(
        packet, decide, accounting, on_overrun="raise" if strict else "truncate"
    )
    outcome = batch.execute().result(handle)
    if strict and outcome.lost:
        raise SimulationError(
            f"phase-1 packet of {initiator} lost at {outcome.drop_node}: "
            f"{outcome.drop_reason}"
        )
    return Phase1Result(
        initiator=initiator,
        walk=outcome.visited,
        collected_failed_links=list(header.failed_links),
        cross_links=list(header.cross_links),
        local_failed_links=local_failed,
        hops=len(outcome.visited) - 1,
        duration=accounting.clock,
        header_timeline=list(accounting.header_timeline),
        field_trace=field_trace,
        complete=outcome.completed,
        incomplete_reason=outcome.drop_reason,
    )
