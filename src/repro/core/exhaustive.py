"""Exhaustive failure-information collection (the road not taken, §III-C).

The paper observes: *"Recording all failed links requires visiting every
node that is adjacent to the failure area and reachable from the recovery
initiator.  This usually leads to a much longer forwarding path and a more
complex forwarding rule than the current RTR design."*

This module implements that alternative so the trade-off can be measured
(``benchmarks/bench_ablations.py``): a packet performs a depth-first
traversal of the initiator's surviving component, so *every* locally
detectable failed link is collected and phase 2 computes on the complete
``E2``-between-live-nodes.  The price is a walk of up to ``2 * |links|``
hops on the whole component (not just the area boundary) and a header
that must carry the visited-node list for the DFS to know where it has
been.

Header accounting: the visited-node list is carried in the header's
``source_route`` field — byte-wise identical (16 bits per node id) to how
a real implementation would encode it.
"""

from __future__ import annotations

from typing import List, Optional, Set

from .. import obs
from ..errors import ForwardingLoopError, SimulationError
from ..failures import LocalView
from ..simulator import (
    ForwardingEngine,
    Mode,
    Packet,
    RecoveryAccounting,
    RecoveryHeader,
    walk_hop_budget,
)
from ..topology import Link, Topology
from .phase1 import Phase1Result, _record_failures_at
from .sweep import sweep_order


def run_exhaustive_phase1(
    topo: Topology,
    view: LocalView,
    initiator: int,
    trigger_neighbor: int,
    engine: ForwardingEngine,
    accounting: Optional[RecoveryAccounting] = None,
) -> Phase1Result:
    """Collect failure information by DFS over the surviving component.

    Returns a :class:`Phase1Result` (same shape as the sweep collector's)
    whose ``collected_failed_links`` is *complete*: every failed link with
    at least one live endpoint reachable from the initiator, except links
    incident to the initiator itself (which it knows locally, §III-B).
    """
    if view.is_neighbor_reachable(initiator, trigger_neighbor):
        raise SimulationError(
            f"exhaustive phase 1 invoked at {initiator} but trigger neighbor "
            f"{trigger_neighbor} is reachable"
        )
    accounting = accounting if accounting is not None else RecoveryAccounting()
    header = RecoveryHeader(mode=Mode.COLLECTING, rec_init=initiator)
    packet = Packet(source=initiator, destination=initiator, header=header)

    local_failed = [
        Link.of(initiator, nb) for nb in view.unreachable_neighbors(initiator)
    ]

    obs.inc("simulator.walks.executed")
    seen: Set[int] = {initiator}
    header.source_route.append(initiator)  # visited list, byte-accounted
    stack: List[int] = []  # DFS parent chain (for backtracking hops)
    field_trace: List[tuple] = []
    walk = [initiator]
    budget = walk_hop_budget(topo.link_count)
    for _ in range(budget):
        current = packet.at
        _record_failures_at(current, initiator, view, header)
        field_trace.append(
            (current, tuple(header.failed_links), tuple(header.cross_links))
        )
        # Deterministic neighbor order: reuse the sweep ordering relative
        # to the previous hop (or the trigger at the very start).
        reference = stack[-1] if stack else trigger_neighbor
        for next_node in sweep_order(topo, current, reference):
            if next_node not in seen and view.is_neighbor_reachable(current, next_node):
                seen.add(next_node)
                header.source_route.append(next_node)
                stack.append(current)
                break
        else:
            if not stack:
                break  # back at the initiator with nothing left
            # Exhausted: backtrack toward the initiator.
            next_node = stack.pop()
            if not view.is_neighbor_reachable(current, next_node):
                raise ForwardingLoopError(
                    f"DFS backtrack {current} -> {next_node} is unreachable", walk
                )
        reason = engine.transmit(packet, next_node, accounting)
        if reason is not None:
            raise SimulationError(f"packet lost mid-walk at {packet.at}: {reason}")
        walk.append(next_node)
    else:
        raise ForwardingLoopError(
            f"walk exceeded {budget} hops without terminating", walk
        )
    return Phase1Result(
        initiator=initiator,
        walk=walk,
        collected_failed_links=list(header.failed_links),
        cross_links=[],
        local_failed_links=local_failed,
        hops=len(walk) - 1,
        duration=accounting.clock,
        header_timeline=list(accounting.header_timeline),
        field_trace=field_trace,
    )
