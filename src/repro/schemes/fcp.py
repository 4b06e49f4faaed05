"""FCP — Failure-Carrying Packets (Lakshminarayanan et al., SIGCOMM 2007).

The reactive baseline the paper compares against (§IV-A), in its
**source-routing variant**, "which reduces the computational overhead of
the original FCP".

Behaviour: the packet header carries the list of failed links the packet
has *encountered*.  A node holding the packet computes a shortest path to
the destination on the topology minus the header's failed links (and minus
its own locally detected failures — a router always knows its neighbors'
reachability), writes it as a source route, and forwards.  When the route
runs into another failure, the detecting node appends that link to the
header and recomputes.  The packet is dropped only when the computing node
finds no path at all — which is why FCP "has to try every possible link to
reach the destination before discarding packets" (§IV-D) and burns many
shortest-path calculations on irrecoverable destinations.
"""

from __future__ import annotations

from typing import List, Optional, Set, Union

from ..chaos import FaultPlan, forwarding_world
from ..errors import SimulationError
from ..failures import FailureScenario, find_initiator
from ..routing import Path, RoutingTable, SPTCache
from ..simulator import (
    DEFAULT_PAYLOAD_BYTES,
    Mode,
    Packet,
    RecoveryAccounting,
    RecoveryHeader,
    RecoveryResult,
    TableWalkSpec,
    WalkPlan,
    run_plan,
)
from ..topology import Link, Topology
from .base import RecoveryScheme, SchemeInstance
from .registry import register_scheme


class FCP:
    """FCP (source-routing variant) over one failure scenario."""

    def __init__(
        self,
        topo: Topology,
        scenario: FailureScenario,
        routing: Optional[RoutingTable] = None,
        max_recomputations: int = 10_000,
        cache: Optional[SPTCache] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.topo = topo
        self.scenario = scenario
        self.routing = routing if routing is not None else RoutingTable(topo)
        self.view, self.engine = forwarding_world(topo, scenario, fault_plan)
        self.max_recomputations = max_recomputations
        # Recomputations from the same node with the same carried failure
        # set recur across destinations of one scenario; the cached tree is
        # result-identical and each recomputation is still charged one SP
        # calculation in the §IV accounting below.
        self.cache = cache if cache is not None else SPTCache()

    def recover(
        self,
        initiator: int,
        destination: int,
        trigger_neighbor: Optional[int] = None,
    ) -> RecoveryResult:
        """Deliver one packet from ``initiator`` with failure-carrying headers."""
        return run_plan(
            self.engine, self.plan_recovery(initiator, destination, trigger_neighbor)
        )

    def plan_recovery(
        self,
        initiator: int,
        destination: int,
        trigger_neighbor: Optional[int] = None,
    ) -> WalkPlan:
        """Compile one FCP case into its first attempt (:meth:`_attempt_plan`)."""
        if not self.scenario.is_node_live(initiator):
            raise SimulationError(f"recovery initiator {initiator} has failed")
        if trigger_neighbor is None:
            trigger_neighbor = self.routing.next_hop(initiator, destination)
            if trigger_neighbor is None:
                raise SimulationError(
                    f"{initiator} has no pre-failure route toward {destination}"
                )
        if self.view.is_neighbor_reachable(initiator, trigger_neighbor):
            raise SimulationError(
                f"default next hop {trigger_neighbor} is reachable; FCP is "
                f"invoked on failure only"
            )

        header = RecoveryHeader(mode=Mode.SOURCE_ROUTED, rec_init=initiator)
        # The initiator *encountered* the failed default next hop: that link
        # is the first entry carried in the header.
        header.record_failed(Link.of(initiator, trigger_neighbor))
        packet = Packet(source=initiator, destination=destination, header=header)
        return self._attempt_plan(packet, RecoveryAccounting(), [initiator], 1)

    def _attempt_plan(
        self,
        packet: Packet,
        accounting: RecoveryAccounting,
        traveled: List[int],
        attempt: int,
    ) -> WalkPlan:
        """One attempt: recompute from the packet's node, walk the route.

        The route compiles to a next-hop table over its own hops, so the
        walk stops at the first failed link.  A table walk does not sample
        the chaos loss stream: FCP's wandering forwards data packets, not
        recovery transmissions.  The continuation carries the failed link
        in the header and recomputes from where the packet stopped.
        """
        if attempt > self.max_recomputations:
            raise SimulationError(
                f"FCP exceeded {self.max_recomputations} recomputations"
            )
        header = packet.header
        current = packet.at
        carried: Set[Link] = set(header.failed_links)
        local = set(self.view.locally_failed_links(current))
        accounting.count_sp(1)
        route = self.cache.shortest_path_or_none(
            self.topo, current, packet.destination, excluded_links=carried | local
        )
        if route is None:
            # Out of options: discard here (§IV-D's late discard).
            return WalkPlan(immediate=self._dropped(accounting, packet))
        nodes = list(route.nodes)
        header.source_route = nodes
        next_hops = dict(zip(nodes, nodes[1:]))

        def finish(outcome) -> Union[RecoveryResult, WalkPlan]:
            traveled.extend(outcome.visited[1:])
            if not outcome.reached:
                drop = outcome.drop_node
                header.record_failed(Link.of(drop, next_hops[drop]))
                return self._attempt_plan(packet, accounting, traveled, attempt + 1)
            return RecoveryResult(
                approach=FCPScheme.name,
                delivered=True,
                path=Path(tuple(traveled), _hop_cost(self.topo, traveled)),
                accounting=accounting,
            )

        return WalkPlan(
            spec=TableWalkSpec(
                next_hops=next_hops, destination=packet.destination, budget=len(nodes)
            ),
            packet=packet,
            accounting=accounting,
            finish=finish,
        )

    def recover_flow(self, source: int, destination: int) -> RecoveryResult:
        """Recover the failed default path, like :meth:`RTR.recover_flow`."""
        initiator, trigger = find_initiator(
            self.view, self.routing, source, destination
        )
        return self.recover(initiator, destination, trigger)

    def _dropped(
        self, accounting: RecoveryAccounting, packet: Packet
    ) -> RecoveryResult:
        return RecoveryResult(
            approach=FCPScheme.name,
            delivered=False,
            path=None,
            accounting=accounting,
            drop_hops=accounting.hops_traveled,
            drop_packet_bytes=DEFAULT_PAYLOAD_BYTES
            + packet.header.recovery_bytes(),
        )


def _hop_cost(topo: Topology, nodes: List[int]) -> float:
    """Total directed cost along a traveled node sequence."""
    return sum(topo.cost(a, b) for a, b in zip(nodes[:-1], nodes[1:]))


@register_scheme
class FCPScheme(RecoveryScheme):
    """Failure-Carrying Packets: failed links ride in the packet header."""

    name = "FCP"

    def _instantiate(self, scenario: FailureScenario, penalty: object) -> SchemeInstance:
        return SchemeInstance(
            self.name,
            FCP(
                self.topo,
                scenario,
                routing=self.routing,
                cache=self.sp_cache,
                fault_plan=self.fault_plan,
            ),
        )
