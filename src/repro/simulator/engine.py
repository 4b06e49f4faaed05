"""Hop-by-hop forwarding engine.

:meth:`ForwardingEngine.forward_one_hop` moves a packet and accounts the
hop, so every protocol pays delays identically.  Each walk spec
(:mod:`repro.simulator.walkspec`, RTR phase 1 in :mod:`repro.core.phase1`)
runs its own hop loop on it: a recovery transmission first asks the
engine's ``lose`` hook, then moves.  The hooks a fault injector needs
(``lose``, ``after_hop``) and an attached :class:`ForwardingTrace` are
``None`` on this engine, and the loops test for ``None`` instead of
calling into it.

Source-routed deliveries report through :class:`RouteOutcome` so
degraded-mode callers (``repro.chaos``) can tell a missed failure from a
lost packet without catching exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .. import obs
from ..errors import ForwardingLoopError, SimulationError
from ..failures import LocalView
from ..topology import Link, Topology
from .packet import Packet
from .stats import HOP_DELAY_S, RecoveryAccounting
from .trace import ForwardingTrace, HopEvent


@dataclass
class RouteOutcome:
    """Result of one source-routed delivery attempt.

    ``lost`` distinguishes a chaos-injected packet loss from the §III-D
    case of the route containing a failure the initiator missed.
    """

    delivered: bool
    drop_node: Optional[int]
    lost: bool = False
    drop_reason: Optional[str] = None


class ForwardingEngine:
    """Moves packets over the surviving topology."""

    #: Fault-injection hook of a recovery transmission:
    #: ``lose(packet, link, accounting)`` is the drop reason or ``None``.
    #: ``None`` here: the ideal engine never drops (see :mod:`repro.chaos`).
    lose: Optional[Callable[[Packet, Link, RecoveryAccounting], Optional[str]]] = None
    #: Fault-injection hook run after every hop: ``after_hop(packet,
    #: accounting)``, which logs any header change it makes.  ``None`` here.
    after_hop: Optional[Callable[[Packet, RecoveryAccounting], None]] = None

    def __init__(
        self,
        topo: Topology,
        view: LocalView,
        trace: Optional[ForwardingTrace] = None,
    ) -> None:
        self.topo = topo
        self.view = view
        #: Optional structured trace of every hop (see simulator.trace).
        self.trace = trace

    def forward_one_hop(
        self,
        packet: Packet,
        next_node: int,
        link: Link,
        accounting: RecoveryAccounting,
    ) -> None:
        """Move ``packet`` from its current node to ``next_node`` over ``link``.

        ``link`` is the link between the two (the caller holds it, from
        ``topo.csr().links``).  The caller must have verified reachability
        and made any loss draw; this moves the packet and adds one hop and
        :data:`~repro.simulator.stats.HOP_DELAY_S` to the accounting.  The
        walk logs the header's size itself (``accounting.carry``).
        """
        accounting.clock += HOP_DELAY_S
        accounting.hops_traveled += 1
        if self.trace is not None:
            self.trace.record(
                HopEvent(
                    time=accounting.clock,
                    sender=packet.at,
                    receiver=next_node,
                    link=link,
                    mode=packet.header.mode,
                    header_bytes=packet.header.recovery_bytes(),
                    packet_id=packet.packet_id,
                    span_id=obs.current_span_id(),
                )
            )
        packet.at = next_node
        if self.after_hop is not None:
            self.after_hop(packet, accounting)

    def follow_source_route_outcome(
        self,
        packet: Packet,
        route: List[int],
        accounting: RecoveryAccounting,
    ) -> RouteOutcome:
        """Forward ``packet`` along an explicit route, stopping at failures.

        §III-D: if the recovery path contains a failure RTR missed, the
        packet is discarded at the node that detects it (``lost=False``);
        a chaos-injected loss is reported with ``lost=True`` so callers
        can retransmit instead of learning a phantom failure.
        """
        obs.inc("simulator.walks.executed")
        if not route:
            raise SimulationError(
                f"source route is empty: packet {packet.packet_id} at "
                f"{packet.at} toward {packet.destination} has no hops to follow"
            )
        if route[0] != packet.at:
            raise ForwardingLoopError(
                f"source route starts at {route[0]} but packet is at {packet.at}",
                [packet.at],
            )
        view, links = self.view, self.topo.csr().links
        lose, hop = self.lose, self.forward_one_hop
        accounting.carry(packet.header.recovery_bytes())
        for next_node in route[1:]:
            current = packet.at
            lid = view.link_id(current, next_node)
            if not view.link_reachable(current, next_node, lid):
                return RouteOutcome(
                    delivered=False,
                    drop_node=current,
                    drop_reason=(
                        f"route hop {current} -> {next_node} is unreachable "
                        f"(failure missed by phase 1)"
                    ),
                )
            link = links[lid]
            if lose is not None:
                drop_reason = lose(packet, link, accounting)
                if drop_reason is not None:
                    return RouteOutcome(
                        delivered=False,
                        drop_node=current,
                        lost=True,
                        drop_reason=drop_reason,
                    )
            hop(packet, next_node, link, accounting)
        return RouteOutcome(delivered=True, drop_node=None)
