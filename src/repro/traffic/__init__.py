"""Demand-driven workload engine.

The paper's evaluation probes each disrupted (source, destination) pair
once; this subsystem weights recovery by the *traffic* those pairs
carry, the way R3 treats the demand matrix as a first-class input and
the MRC line evaluates post-recovery link load:

* :mod:`repro.traffic.matrix` — :class:`TrafficMatrix`, deterministic
  demand per ordered OD pair;
* :mod:`repro.traffic.generators` — seeded gravity / uniform / hotspot
  demand models over a topology's coordinates and degrees;
* :mod:`repro.traffic.flows` — a synthetic flow population apportioned
  over pairs (largest remainder, exact and deterministic);
* :mod:`repro.traffic.capacity` — link capacity provisioning, batched
  per-root load accounting, overload detection;
* :mod:`repro.traffic.engine` — the flow-level batched simulator:
  millions of flows collapse to OD pairs, pairs collapse to recovery
  cases, cases run once through the existing pipeline;
* :mod:`repro.traffic.metrics` — traffic-weighted Table III rows,
  phase-1 window loss, congestion summaries.

See DESIGN.md §9 for the architecture and EXPERIMENTS.md for the
traffic-weighted Table III walkthrough.
"""

from .matrix import TrafficMatrix
from .generators import (
    DEFAULT_TOTAL_DEMAND,
    MATRIX_MODELS,
    generate_matrix,
    gravity_matrix,
    hotspot_matrix,
    uniform_matrix,
)
from .flows import FlowBatch, FlowSet, aggregate_flows
from .capacity import (
    DEFAULT_HEADROOM,
    LinkLoadMap,
    baseline_loads,
    provision_capacities,
)
from .engine import (
    DisruptedPair,
    PairClassification,
    TrafficEngine,
    classify_pairs,
)
from .metrics import (
    TrafficScenarioRecord,
    TrafficWeightedSummary,
    safe_div,
    summarize_traffic,
)

__all__ = [
    "TrafficMatrix",
    "DEFAULT_TOTAL_DEMAND",
    "MATRIX_MODELS",
    "generate_matrix",
    "gravity_matrix",
    "hotspot_matrix",
    "uniform_matrix",
    "FlowBatch",
    "FlowSet",
    "aggregate_flows",
    "DEFAULT_HEADROOM",
    "LinkLoadMap",
    "baseline_loads",
    "provision_capacities",
    "DisruptedPair",
    "PairClassification",
    "TrafficEngine",
    "classify_pairs",
    "TrafficScenarioRecord",
    "TrafficWeightedSummary",
    "safe_div",
    "summarize_traffic",
]
