"""Packet-level simulation substrate: packets, delays, events, accounting."""

from .packet import (
    BYTES_PER_ID,
    DEFAULT_PAYLOAD_BYTES,
    FIXED_RTR_HEADER_BYTES,
    Mode,
    Packet,
    RecoveryHeader,
)
from .delays import (
    DEFAULT_DELAY_MODEL,
    PAPER_PROPAGATION_S,
    ROUTER_DELAY_S,
    DelayModel,
    DistanceDelayModel,
    PaperDelayModel,
)
from .events import EventQueue
from .stats import RecoveryAccounting, RecoveryResult, aggregate_results
from .trace import DropEvent, ForwardingTrace, HopEvent
from .engine import (
    ForwardingEngine,
    NextHopFn,
    RouteOutcome,
    WalkOutcome,
)
from .budget import (
    HOP_BUDGET_FACTOR,
    HOP_BUDGET_SLACK,
    table_walk_hop_budget,
    walk_hop_budget,
)
from .walkspec import (
    CallbackWalkSpec,
    SourceRouteSpec,
    TableWalkOutcome,
    TableWalkSpec,
    WalkPlan,
)

from .batch import WalkBatch, run_plan, run_table_walk

__all__ = [
    "BYTES_PER_ID",
    "DEFAULT_PAYLOAD_BYTES",
    "FIXED_RTR_HEADER_BYTES",
    "Mode",
    "Packet",
    "RecoveryHeader",
    "DEFAULT_DELAY_MODEL",
    "PAPER_PROPAGATION_S",
    "ROUTER_DELAY_S",
    "DelayModel",
    "DistanceDelayModel",
    "PaperDelayModel",
    "EventQueue",
    "RecoveryAccounting",
    "RecoveryResult",
    "aggregate_results",
    "DropEvent",
    "ForwardingTrace",
    "HopEvent",
    "ForwardingEngine",
    "NextHopFn",
    "RouteOutcome",
    "WalkOutcome",
    "HOP_BUDGET_FACTOR",
    "HOP_BUDGET_SLACK",
    "table_walk_hop_budget",
    "walk_hop_budget",
    "CallbackWalkSpec",
    "SourceRouteSpec",
    "TableWalkOutcome",
    "TableWalkSpec",
    "WalkPlan",
    "WalkBatch",
    "run_plan",
    "run_table_walk",
]
