"""Hop-by-hop forwarding engine.

The engine moves packets: :meth:`ForwardingEngine.transmit` makes one
transmission (a loss draw, then the hop), and
:meth:`ForwardingEngine.forward_one_hop` moves and accounts it, so every
protocol pays delays and header bytes identically.  Each walk spec
(:mod:`repro.simulator.walkspec`, RTR phase 1 in :mod:`repro.core.phase1`)
runs its own hop loop on these two calls.

Source-routed deliveries report through :class:`RouteOutcome` so
degraded-mode callers (``repro.chaos``) can tell a missed failure from a
lost packet without catching exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .. import obs
from ..errors import ForwardingLoopError, SimulationError
from ..failures import LocalView
from ..topology import Link, Topology
from .delays import DEFAULT_DELAY_MODEL, DelayModel
from .packet import Packet
from .stats import RecoveryAccounting
from .trace import DropEvent, ForwardingTrace, HopEvent


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

    def __init__(
        self,
        topo: Topology,
        view: LocalView,
        delay_model: DelayModel = DEFAULT_DELAY_MODEL,
        trace: Optional[ForwardingTrace] = None,
    ) -> None:
        self.topo = topo
        self.view = view
        self.delay_model = delay_model
        #: Optional structured trace of every hop (see simulator.trace).
        self.trace = trace

    def _chaos_check(self, packet: Packet, link: Link) -> Optional[str]:
        """Hook: reason the transmission over ``link`` is dropped, or ``None``.

        The base engine never drops packets; :mod:`repro.chaos` overrides
        this to inject per-hop recovery-packet loss.
        """
        return None

    def forward_one_hop(
        self,
        packet: Packet,
        next_node: int,
        link: Link,
        accounting: RecoveryAccounting,
    ) -> None:
        """Transmit ``packet`` from its current node to ``next_node`` over ``link``.

        ``link`` is the link between the two (the caller holds it, from
        ``topo.csr().links``).  The caller must have verified reachability;
        this only moves and accounts.  Header bytes are sampled *as
        transmitted* on this hop.
        """
        delay = self.delay_model.hop_delay(self.topo, link)
        header_bytes = packet.header.recovery_bytes()
        accounting.record_hop(delay, header_bytes)
        if self.trace is not None:
            self.trace.record(
                HopEvent(
                    time=accounting.clock,
                    sender=packet.at,
                    receiver=next_node,
                    link=link,
                    mode=packet.header.mode,
                    header_bytes=header_bytes,
                    packet_id=packet.packet_id,
                    span_id=obs.current_span_id(),
                )
            )
        packet.at = next_node
        packet.recovery_hops += 1

    def transmit(
        self,
        packet: Packet,
        next_node: int,
        link: Link,
        accounting: RecoveryAccounting,
    ) -> Optional[str]:
        """Send ``packet`` to ``next_node`` over ``link``: the drop reason, or ``None``.

        One loss draw (:meth:`_chaos_check`) per transmission; a dropped
        packet stays where it is and is logged in the trace, otherwise it
        moves through :meth:`forward_one_hop`.
        """
        reason = self._chaos_check(packet, link)
        if reason is None:
            self.forward_one_hop(packet, next_node, link, accounting)
        elif self.trace is not None:
            self.trace.record_drop(
                DropEvent(
                    time=accounting.clock,
                    node=packet.at,
                    mode=packet.header.mode,
                    packet_id=packet.packet_id,
                    reason=reason,
                    span_id=obs.current_span_id(),
                )
            )
        return reason

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
        for next_node in route[1:]:
            lid = view.link_id(packet.at, next_node)
            if not view.link_reachable(packet.at, next_node, lid):
                return RouteOutcome(
                    delivered=False,
                    drop_node=packet.at,
                    drop_reason=(
                        f"route hop {packet.at} -> {next_node} is unreachable "
                        f"(failure missed by phase 1)"
                    ),
                )
            drop_reason = self.transmit(packet, next_node, links[lid], accounting)
            if drop_reason is not None:
                return RouteOutcome(
                    delivered=False,
                    drop_node=packet.at,
                    lost=True,
                    drop_reason=drop_reason,
                )
        return RouteOutcome(delivered=True, drop_node=None)
