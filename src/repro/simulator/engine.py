"""Hop-by-hop forwarding engine.

The protocols (RTR phase 1, FCP wandering, MRC configuration switching,
source-routed delivery) all reduce to the same mechanical loop: ask a
per-node decision function for the next hop, check local reachability,
move the packet, account the hop.  The engine owns that loop so every
protocol pays delays and header bytes identically.

Walks and source-routed deliveries report through :class:`WalkOutcome`
and :class:`RouteOutcome` so degraded-mode callers (``repro.chaos``) can
distinguish a completed walk from a truncated or lost one without
catching exceptions; the classic :meth:`ForwardingEngine.walk` /
:meth:`ForwardingEngine.follow_source_route` entry points keep their
strict raise-on-anomaly semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .. import obs
from ..errors import ForwardingLoopError, SimulationError
from ..failures import LocalView
from ..topology import Link, Topology
from .budget import walk_hop_budget
from .delays import DEFAULT_DELAY_MODEL, DelayModel
from .packet import Packet
from .stats import RecoveryAccounting
from .trace import DropEvent, ForwardingTrace, HopEvent

#: A decision function: given the current node and the packet, return the
#: next hop, or ``None`` to stop the walk at the current node.
NextHopFn = Callable[[int, Packet], Optional[int]]


@dataclass
class WalkOutcome:
    """Result of one :meth:`ForwardingEngine.walk_outcome` drive.

    Exactly one of the three terminal conditions holds: ``completed``
    (the decision function returned ``None``), ``truncated`` (the hop
    budget ran out in non-strict mode), or ``lost`` (a fault injector
    dropped the packet mid-walk).
    """

    visited: List[int]
    completed: bool
    truncated: bool = False
    lost: bool = False
    #: Node holding the packet when it was truncated or lost.
    drop_node: Optional[int] = None
    drop_reason: Optional[str] = None


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

    def _chaos_check(self, packet: Packet, next_node: int) -> Optional[str]:
        """Hook: reason the next transmission is dropped, or ``None``.

        The base engine never drops packets; :mod:`repro.chaos` overrides
        this to inject per-hop recovery-packet loss.
        """
        return None

    def forward_one_hop(
        self, packet: Packet, next_node: int, accounting: RecoveryAccounting
    ) -> None:
        """Transmit ``packet`` from its current node to ``next_node``.

        The caller must have verified reachability; this only moves and
        accounts.  Header bytes are sampled *as transmitted* on this hop.
        """
        link = Link.of(packet.at, next_node)
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

    def walk_outcome(
        self,
        packet: Packet,
        decide: NextHopFn,
        accounting: RecoveryAccounting,
        max_hops: Optional[int] = None,
        on_overrun: str = "raise",
    ) -> WalkOutcome:
        """Drive ``packet`` until ``decide`` returns ``None``.

        The hop budget defaults to ``walk_hop_budget(link_count)``
        (:mod:`repro.simulator.budget`): Theorem 1 bounds
        a correct phase-1 walk by twice the links (each traversed at most
        once per direction), so exceeding four times is an implementation
        error.  ``on_overrun`` selects what an exhausted budget means:
        ``"raise"`` (the strict default) raises
        :class:`ForwardingLoopError` with the partial walk, while
        ``"truncate"`` returns a non-fatal :class:`WalkOutcome` with
        ``truncated=True`` so degraded-mode callers can retry or fall back
        instead of aborting a whole experiment sweep.
        """
        obs.inc("simulator.walks.executed")
        if on_overrun not in ("raise", "truncate"):
            raise ValueError(f"unknown on_overrun mode {on_overrun!r}")
        budget = (
            max_hops if max_hops is not None else walk_hop_budget(self.topo.link_count)
        )
        visited = [packet.at]
        for _ in range(budget):
            next_node = decide(packet.at, packet)
            if next_node is None:
                return WalkOutcome(visited=visited, completed=True)
            if not self.view.is_neighbor_reachable(packet.at, next_node):
                raise ForwardingLoopError(
                    f"decision function chose unreachable neighbor {next_node} "
                    f"from {packet.at}",
                    visited,
                )
            drop_reason = self._chaos_check(packet, next_node)
            if drop_reason is not None:
                self._record_drop(packet, accounting, drop_reason)
                return WalkOutcome(
                    visited=visited,
                    completed=False,
                    lost=True,
                    drop_node=packet.at,
                    drop_reason=drop_reason,
                )
            self.forward_one_hop(packet, next_node, accounting)
            visited.append(next_node)
        if on_overrun == "truncate":
            return WalkOutcome(
                visited=visited,
                completed=False,
                truncated=True,
                drop_node=packet.at,
                drop_reason=f"walk exceeded {budget} hops without terminating",
            )
        raise ForwardingLoopError(
            f"walk exceeded {budget} hops without terminating", visited
        )

    def walk(
        self,
        packet: Packet,
        decide: NextHopFn,
        accounting: RecoveryAccounting,
        max_hops: Optional[int] = None,
    ) -> List[int]:
        """Strict walk: returns the visited nodes, raising on any anomaly."""
        outcome = self.walk_outcome(
            packet, decide, accounting, max_hops=max_hops, on_overrun="raise"
        )
        if outcome.lost:
            # Only possible with a chaos engine driven through the strict
            # entry point; surface it rather than silently returning a
            # partial walk.
            raise SimulationError(
                f"packet lost mid-walk at {outcome.drop_node}: "
                f"{outcome.drop_reason}"
            )
        return outcome.visited

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
        for next_node in route[1:]:
            if not self.view.is_neighbor_reachable(packet.at, next_node):
                return RouteOutcome(
                    delivered=False,
                    drop_node=packet.at,
                    drop_reason=(
                        f"route hop {packet.at} -> {next_node} is unreachable "
                        f"(failure missed by phase 1)"
                    ),
                )
            drop_reason = self._chaos_check(packet, next_node)
            if drop_reason is not None:
                self._record_drop(packet, accounting, drop_reason)
                return RouteOutcome(
                    delivered=False,
                    drop_node=packet.at,
                    lost=True,
                    drop_reason=drop_reason,
                )
            self.forward_one_hop(packet, next_node, accounting)
        return RouteOutcome(delivered=True, drop_node=None)

    def follow_source_route(
        self,
        packet: Packet,
        route: List[int],
        accounting: RecoveryAccounting,
    ) -> Tuple[bool, Optional[int]]:
        """Compatibility wrapper returning ``(delivered, drop_node)``."""
        outcome = self.follow_source_route_outcome(packet, route, accounting)
        return outcome.delivered, outcome.drop_node

    def _record_drop(
        self,
        packet: Packet,
        accounting: RecoveryAccounting,
        reason: str,
    ) -> None:
        """Log a packet drop into the trace, if one is attached."""
        if self.trace is not None:
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
