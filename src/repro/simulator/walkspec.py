"""Walk specs — the decision layer's contract with the walk plane.

A recovery scheme decides where a packet goes; the walk plane
(:mod:`repro.simulator.batch`) moves it there.  Each scheme compiles a
case into a spec, and every spec runs its own hop loop as
``spec.walk(engine, packet, accounting)`` on the
:class:`~repro.simulator.engine.ForwardingEngine`:

* :class:`SourceRouteSpec` — an explicit node sequence (RTR phase-2 and
  r3 source-routed delivery).
* :class:`TableWalkSpec` — a next-hop table indexed by current node
  (MRC backup-configuration trees, each FCP attempt's route).
* ``SweepWalkSpec`` in :mod:`repro.core.phase1` — RTR phase 1's
  right-hand sweep, whose next hop reads the header every hop.

:class:`WalkPlan` packages one compiled step of a case: either an
``immediate`` :class:`~repro.simulator.stats.RecoveryResult` (walk-free
schemes, early discards) or a spec plus a ``finish`` continuation.
``finish`` folds the walk outcome into the scheme's result, or returns
the next plan when the scheme reacts to the outcome (RTR's resends and
§III-D re-invocations, FCP's recomputations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Mapping, Optional, Union

from .. import obs
from .packet import Packet
from .stats import RecoveryAccounting

if TYPE_CHECKING:
    from .engine import ForwardingEngine, RouteOutcome
    from .stats import RecoveryResult


@dataclass
class WalkOutcome:
    """Result of one node-sequence walk (a table walk or a phase-1 sweep).

    At most one of ``reached`` (the walk ended where it should),
    ``truncated`` (the hop budget ran out) and ``lost`` (a fault injector
    dropped the packet) holds; none does when the walk stopped short.
    """

    visited: List[int]
    reached: bool
    truncated: bool = False
    lost: bool = False
    #: Node holding the packet when the walk stopped short (None if reached).
    drop_node: Optional[int] = None
    drop_reason: Optional[str] = None


@dataclass
class SourceRouteSpec:
    """Follow an explicit route; §III-D drop at the first missed failure."""

    route: List[int]

    def walk(
        self, engine: "ForwardingEngine", packet: Packet, accounting: RecoveryAccounting
    ) -> "RouteOutcome":
        return engine.follow_source_route_outcome(packet, self.route, accounting)


@dataclass
class TableWalkSpec:
    """Walk a next-hop table toward ``destination`` within ``budget`` hops.

    ``next_hops`` maps current node -> next node; a missing entry stops
    the walk (the table has no route from there).  The walk semantics
    mirror the historical MRC loop exactly: the destination check happens
    *before* the table lookup, an unreachable table hop is a drop (never
    an exception unless the table names a non-adjacent node), and an
    exhausted budget truncates.
    """

    next_hops: Mapping[int, int]
    destination: int
    budget: int

    def walk(
        self, engine: "ForwardingEngine", packet: Packet, accounting: RecoveryAccounting
    ) -> WalkOutcome:
        """Walk the table; no hop makes a loss draw.

        Table walks carry data packets, and the chaos loss stream samples
        recovery transmissions (phase-1 walks and source routes) only; a
        chaos engine still advances the hop clock through
        ``forward_one_hop``.
        """
        obs.inc("simulator.walks.executed")
        visited = [packet.at]
        view = engine.view
        for _ in range(self.budget):
            current = packet.at
            if current == self.destination:
                return WalkOutcome(visited=visited, reached=True)
            nxt = self.next_hops.get(current)
            if nxt is None:
                return WalkOutcome(
                    visited=visited,
                    reached=False,
                    drop_node=current,
                    drop_reason=f"no table next hop at {current}",
                )
            if not view.is_neighbor_reachable(current, nxt):
                return WalkOutcome(
                    visited=visited,
                    reached=False,
                    drop_node=current,
                    drop_reason=f"table hop {current} -> {nxt} is unreachable",
                )
            engine.forward_one_hop(packet, nxt, accounting)
            visited.append(nxt)
        return WalkOutcome(
            visited=visited,
            reached=False,
            truncated=True,
            drop_node=packet.at,
            drop_reason=f"table walk exceeded {self.budget} hops without terminating",
        )


@dataclass
class WalkPlan:
    """One compiled step of a case: an immediate result or a spec+finish."""

    #: Set when the case needs no walk (walk-free scheme, early discard,
    #: or an isolated error result) — ``spec``/``finish`` are unused then.
    immediate: Optional["RecoveryResult"] = None
    #: Anything with ``walk(engine, packet, accounting)``.
    spec: Optional[object] = None
    packet: Optional[Packet] = None
    accounting: Optional[RecoveryAccounting] = None
    #: Folds the walk outcome (RouteOutcome / WalkOutcome) into the
    #: scheme's RecoveryResult, or returns the next plan of the same case.
    finish: Optional[Callable[[object], Union["RecoveryResult", "WalkPlan"]]] = None
