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
    PaperDelayModel,
)
from .stats import RecoveryAccounting, RecoveryResult
from .trace import DropEvent, ForwardingTrace, HopEvent
from .engine import ForwardingEngine, RouteOutcome
from .budget import (
    HOP_BUDGET_FACTOR,
    HOP_BUDGET_SLACK,
    table_walk_hop_budget,
    walk_hop_budget,
)
from .walkspec import SourceRouteSpec, TableWalkSpec, WalkOutcome, WalkPlan

from .batch import WalkBatch, run_plan

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
    "PaperDelayModel",
    "RecoveryAccounting",
    "RecoveryResult",
    "DropEvent",
    "ForwardingTrace",
    "HopEvent",
    "ForwardingEngine",
    "RouteOutcome",
    "HOP_BUDGET_FACTOR",
    "HOP_BUDGET_SLACK",
    "table_walk_hop_budget",
    "walk_hop_budget",
    "SourceRouteSpec",
    "TableWalkSpec",
    "WalkOutcome",
    "WalkPlan",
    "WalkBatch",
    "run_plan",
]
