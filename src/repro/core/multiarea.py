"""Recovery across multiple failure areas (§III-E).

RTR is designed around one failure area, but the same machinery composes:
when a source-routed packet that already bypassed area ``F1`` runs into a
second area ``F2``, the node that detects it becomes a new recovery
initiator.  The packet header keeps the failure information collected so
far, so the new initiator removes *all* recorded failed links — those of
``F1`` and of ``F2`` — before recomputing, and the new route bypasses both
(the paper notes the mapping technique of FCP can compress the header; we
charge the plain 16-bit-per-id cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..errors import SimulationError
from ..failures import FailureScenario, LocalView
from ..routing import RoutingTable
from ..simulator import ForwardingEngine, RecoveryAccounting
from ..topology import Link, Topology
from .phase1 import run_phase1
from .rtr import RTRConfig


@dataclass
class MultiAreaResult:
    """Outcome of a delivery attempt across multiple failure areas."""

    delivered: bool
    #: Full node sequence actually traveled from the source (may revisit
    #: nodes when consecutive recoveries backtrack).
    traveled: List[int]
    #: Recovery initiators, in the order they took over the packet.
    initiators: List[int]
    accounting: RecoveryAccounting = field(default_factory=RecoveryAccounting)
    #: All failed links recorded in the packet header at the end.
    known_failed_links: Set[Link] = field(default_factory=set)

    @property
    def recovery_count(self) -> int:
        """How many recovery initiators were involved."""
        return len(self.initiators)


class MultiAreaRTR:
    """Chained RTR recoveries for scenarios with several failure areas."""

    def __init__(
        self,
        topo: Topology,
        scenario: FailureScenario,
        routing: Optional[RoutingTable] = None,
        config: Optional[RTRConfig] = None,
        max_recoveries: int = 16,
    ) -> None:
        self.topo = topo
        self.scenario = scenario
        self.view = LocalView(scenario)
        self.routing = routing if routing is not None else RoutingTable(topo)
        self.config = config or RTRConfig()
        self.engine = ForwardingEngine(topo, self.view)
        self.max_recoveries = max_recoveries

    def deliver(self, source: int, destination: int) -> MultiAreaResult:
        """Drive one packet from ``source`` to ``destination``.

        Uses default routing until a failure is met, then chains RTR
        recoveries, accumulating failed-link knowledge in the header.
        """
        if not self.scenario.is_node_live(source):
            raise SimulationError(f"source {source} has failed")
        accounting = RecoveryAccounting()
        traveled = [source]
        initiators: List[int] = []
        known_failed: Set[Link] = set()

        # Default forwarding until the first failure (or delivery).
        current = source
        default_path = self.routing.path(source, destination)
        if default_path is None:
            return MultiAreaResult(False, traveled, initiators, accounting, known_failed)
        pending_trigger: Optional[int] = None
        links = self.topo.csr().links
        for node, nxt in default_path.hops():
            lid = self.view.link_id(node, nxt)
            if not self.view.link_reachable(node, nxt, lid):
                current, pending_trigger = node, nxt
                break
            self.engine.forward_one_hop(
                _probe_packet(node, destination), nxt, links[lid], accounting
            )
            traveled.append(nxt)
            current = nxt
        if current == destination:
            return MultiAreaResult(True, traveled, initiators, accounting, known_failed)

        # Chained recoveries.
        for _ in range(self.max_recoveries):
            initiator, trigger = current, pending_trigger
            assert trigger is not None
            initiators.append(initiator)

            phase1 = run_phase1(
                self.topo,
                self.view,
                initiator,
                trigger,
                self.engine,
                accounting=accounting,
                use_constraints=self.config.use_constraints,
                clockwise=self.config.clockwise,
            )
            traveled.extend(phase1.walk[1:])
            known_failed.update(phase1.all_known_failed_links())

            accounting.count_sp(1)
            route = self.routing.cache.shortest_path_or_none(
                self.topo, initiator, destination, excluded_links=known_failed
            )
            if route is None:
                return MultiAreaResult(
                    False, traveled, initiators, accounting, known_failed
                )

            # Source-route until delivery or the next undiscovered failure.
            accounting.carry(0)  # the probe packets' empty header
            hit_failure = False
            for node, nxt in route.hops():
                lid = self.view.link_id(node, nxt)
                if not self.view.link_reachable(node, nxt, lid):
                    # New failure area: this node takes over (§III-E).
                    known_failed.add(links[lid])
                    current, pending_trigger = node, nxt
                    hit_failure = True
                    break
                self.engine.forward_one_hop(
                    _probe_packet(node, destination), nxt, links[lid], accounting
                )
                traveled.append(nxt)
            if not hit_failure:
                return MultiAreaResult(
                    True, traveled, initiators, accounting, known_failed
                )
        return MultiAreaResult(False, traveled, initiators, accounting, known_failed)


def _probe_packet(at: int, destination: int):
    """A minimal packet for hop accounting during default/source routing."""
    from ..simulator import Packet

    packet = Packet(source=at, destination=destination)
    packet.at = at
    return packet
