"""Walk specs — the decision layer's contract with the walk plane.

A recovery scheme decides where a packet goes; the walk plane
(:mod:`repro.simulator.batch`) moves it there.  Each scheme compiles a
case into one of three specs, which the mechanics layer executes on the
:class:`~repro.simulator.engine.ForwardingEngine`.

* :class:`SourceRouteSpec` — an explicit node sequence (RTR phase-2 and
  r3 source-routed delivery).
* :class:`TableWalkSpec` — a next-hop table indexed by current node
  (MRC backup-configuration trees, each FCP attempt's route).
* :class:`CallbackWalkSpec` — an opaque per-hop decision function for
  genuinely stateful walks (RTR phase-1's sweeping rule mutates header
  and constraint state every hop).

:class:`WalkPlan` packages one compiled step of a case: either an
``immediate`` :class:`~repro.simulator.stats.RecoveryResult` (walk-free
schemes, early discards) or a spec plus a ``finish`` continuation.
``finish`` folds the walk outcome into the scheme's result, or returns
the next plan when the scheme reacts to the outcome (RTR's resends and
§III-D re-invocations, FCP's recomputations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Mapping, Optional, Union

from .packet import Packet
from .stats import RecoveryAccounting

if TYPE_CHECKING:
    from .engine import NextHopFn
    from .stats import RecoveryResult


@dataclass
class SourceRouteSpec:
    """Follow an explicit route; §III-D drop at the first missed failure."""

    route: List[int]


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


@dataclass
class CallbackWalkSpec:
    """An opaque stateful walk driven by a per-hop decision function."""

    decide: "NextHopFn"
    max_hops: Optional[int] = None
    on_overrun: str = "raise"


@dataclass
class TableWalkOutcome:
    """Result of one table walk (see :class:`TableWalkSpec` semantics)."""

    visited: List[int]
    #: The walk ended standing on its destination.
    reached: bool
    #: Node holding the packet when the walk stopped short (None if reached).
    drop_node: Optional[int] = None
    drop_reason: Optional[str] = None
    #: The hop budget ran out before any terminal condition.
    truncated: bool = False


@dataclass
class WalkPlan:
    """One compiled step of a case: an immediate result or a spec+finish."""

    #: Set when the case needs no walk (walk-free scheme, early discard,
    #: or an isolated error result) — ``spec``/``finish`` are unused then.
    immediate: Optional["RecoveryResult"] = None
    spec: Optional[object] = None
    packet: Optional[Packet] = None
    accounting: Optional[RecoveryAccounting] = None
    #: Folds the walk outcome (RouteOutcome / TableWalkOutcome /
    #: WalkOutcome) into the scheme's RecoveryResult, or returns the next
    #: plan of the same case.
    finish: Optional[Callable[[object], Union["RecoveryResult", "WalkPlan"]]] = field(
        default=None
    )
