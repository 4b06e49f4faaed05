"""Traffic-weighted recovery metrics.

The paper's Table III counts *test cases*; here every quantity is
weighted by the demand the disrupted pairs actually carry:

* **demand recovery rate** — delivered recoverable demand over
  recoverable demand (the traffic-weighted Table III recovery rate);
* **demand optimal rate** — demand recovered on a ground-truth shortest
  path, over recoverable demand;
* **demand-weighted stretch** — Σ demand·stretch / Σ demand over
  delivered recoverable traffic;
* **phase-1 window loss** — demand·seconds of traffic black-holed while
  the initiator's first-phase walk is still collecting failure
  information (under the §IV-B 1.8 ms/hop delay model);
* **post-recovery load** — per-link utilization against provisioned
  capacities, with overload detection.

Every denominator is guarded: empty populations yield defined zeros,
never ``ZeroDivisionError`` — a sweep whose scenarios disrupt nothing
still summarizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..errors import SimulationError
from ..te.metrics import (
    merge_histograms,
    utilization_percentile,
)

#: Relative slack of the accounting identities: every side is an ``fsum``
#: over a different partition of the same group demands, so honest records
#: differ by rounding only.
ACCOUNTING_TOLERANCE = 1e-9


def safe_div(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with a defined 0.0 for an empty base."""
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


@dataclass(frozen=True)
class TrafficScenarioRecord:
    """Traffic-weighted outcome of one approach on one failure scenario.

    Plain floats/ints only — records cross process boundaries in the
    parallel sweep and are aggregated in scenario order by
    :func:`summarize_traffic`.
    """

    approach: str
    scenario_index: int
    #: Aggregate matrix demand / flow population (scenario-invariant).
    total_demand: float
    total_flows: int
    #: Pairs whose default path broke with a live source.
    disrupted_pairs: int
    disrupted_demand: float
    disrupted_flows: int
    #: Demand originating at routers destroyed by the failure area.
    failed_source_demand: float
    failed_source_flows: int
    #: Disrupted demand split by ground-truth recoverability.
    recoverable_demand: float
    irrecoverable_demand: float
    #: Demand/flows the approach actually delivered.
    delivered_demand: float
    delivered_flows: int
    delivered_recoverable_demand: float
    #: Demand delivered on a ground-truth shortest recovery path.
    optimal_demand: float
    #: Σ demand·stretch and Σ demand over delivered recoverable pairs.
    stretch_demand_sum: float
    stretch_demand_weight: float
    max_stretch: float
    #: Demand·seconds lost while phase-1 walks were in flight.
    phase1_loss: float
    #: Demand that only got through via the reconvergence fallback.
    fallback_demand: float
    #: Demand on cases where the protocol crashed (isolated errors).
    error_demand: float
    #: Post-recovery load vs capacity.
    max_utilization: float
    overloaded_links: int
    overload_demand: float
    #: Fixed-bin utilization histogram over all topology links
    #: (:data:`repro.te.metrics.UTILIZATION_BIN_EDGES` + overflow); empty
    #: tuple on records predating the congestion layer.
    utilization_hist: Tuple[int, ...] = ()
    #: Top-k overload attribution entries
    #: (:data:`repro.te.metrics.AttributionEntry`): which rerouted OD
    #: demands piled onto each overloaded link.
    overload_attribution: Tuple = ()
    #: Demand shed by utilization-cap admission control (congestion-aware
    #: sweeps only; counted inside the drop totals, reported separately).
    admission_dropped_demand: float = 0.0


def check_accounting(record: TrafficScenarioRecord) -> None:
    """Raise :class:`SimulationError` unless the record's demand adds up.

    Disrupted demand splits exactly into recoverable and irrecoverable;
    a scheme cannot deliver more recoverable demand than exists; and
    delivered and admission-shed groups are disjoint subsets of the
    disrupted ones.  A record breaking any of these would otherwise
    surface as a plausible-looking rate in a published row.
    """
    disrupted = record.disrupted_demand
    slack = ACCOUNTING_TOLERANCE * max(1.0, disrupted)
    split = record.recoverable_demand + record.irrecoverable_demand
    handled = record.delivered_demand + record.admission_dropped_demand
    if abs(split - disrupted) > slack:
        broken = f"recoverable + irrecoverable demand {split!r} != disrupted {disrupted!r}"
    elif record.delivered_recoverable_demand > record.recoverable_demand + slack:
        broken = (
            f"delivered recoverable demand {record.delivered_recoverable_demand!r}"
            f" > recoverable {record.recoverable_demand!r}"
        )
    elif handled > disrupted + slack:
        broken = f"delivered + admission-dropped demand {handled!r} > disrupted {disrupted!r}"
    else:
        return
    raise SimulationError(
        f"traffic accounting broken for {record.approach} "
        f"scenario {record.scenario_index}: {broken}"
    )


@dataclass
class TrafficWeightedSummary:
    """A traffic-weighted Table III row, aggregated over scenarios."""

    approach: str
    scenarios: int
    total_demand: float
    disrupted_demand: float
    disrupted_flows: int
    recoverable_demand: float
    delivered_demand: float
    delivered_flows: int
    #: delivered recoverable demand / recoverable demand.
    demand_recovery_rate: float
    #: delivered demand / disrupted demand (includes irrecoverable base).
    demand_delivered_fraction: float
    #: optimally-recovered demand / recoverable demand.
    demand_optimal_rate: float
    #: Σ demand·stretch / Σ demand over delivered recoverable traffic.
    demand_weighted_stretch: float
    max_stretch: float
    #: Demand·seconds black-holed during phase-1 walks, and the same
    #: normalized per unit of disrupted demand (the demand-weighted mean
    #: phase-1 window in seconds).
    phase1_loss: float
    mean_phase1_window_s: float
    fallback_demand: float
    error_demand: float
    #: Worst post-recovery congestion over the sweep.
    max_utilization: float
    max_overloaded_links: int
    max_overload_demand: float
    #: Fraction of scenarios recovered with zero overloaded links.
    congestion_free_rate: float = 0.0
    #: Percentiles of the merged post-recovery utilization CDF (upper bin
    #: edges; pair with ``max_utilization`` for the exact tail).
    utilization_p50: float = 0.0
    utilization_p95: float = 0.0
    utilization_p99: float = 0.0
    #: Overload attribution of the worst (max-utilization) scenario.
    worst_overload_attribution: Tuple = ()
    #: Total demand shed by utilization-cap admission control.
    admission_dropped_demand: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """Row form for reports (percentages rounded like Table III)."""
        return {
            "approach": self.approach,
            "scenarios": self.scenarios,
            "disrupted_demand": round(self.disrupted_demand, 3),
            "disrupted_flows": self.disrupted_flows,
            "demand_recovery_rate_pct": round(100.0 * self.demand_recovery_rate, 1),
            "demand_delivered_pct": round(
                100.0 * self.demand_delivered_fraction, 1
            ),
            "demand_optimal_rate_pct": round(100.0 * self.demand_optimal_rate, 1),
            "weighted_stretch": round(self.demand_weighted_stretch, 3),
            "max_stretch": round(self.max_stretch, 2),
            "phase1_loss": round(self.phase1_loss, 4),
            "mean_phase1_window_ms": round(1000.0 * self.mean_phase1_window_s, 3),
            "max_utilization": round(self.max_utilization, 3),
            "overloaded_links": self.max_overloaded_links,
            "congestion_free_pct": round(100.0 * self.congestion_free_rate, 1),
            "utilization_p50": round(self.utilization_p50, 3),
            "utilization_p95": round(self.utilization_p95, 3),
            "utilization_p99": round(self.utilization_p99, 3),
            "admission_dropped_demand": round(self.admission_dropped_demand, 3),
        }


def summarize_traffic(
    records: Sequence[TrafficScenarioRecord],
) -> TrafficWeightedSummary:
    """Aggregate per-scenario records (in order) into one weighted row.

    Sums use :func:`math.fsum` over the records in the order given —
    callers keep scenario order stable so serial and parallel sweeps
    produce bit-identical summaries.  Empty input yields an all-zero row.
    Raises :class:`SimulationError` on a record whose demand does not add
    up (:func:`check_accounting`) — records also arrive from checkpoints
    and worker processes, not only from the engine that checked them.
    """
    for record in records:
        check_accounting(record)
    approach = records[0].approach if records else ""
    total_demand = math.fsum(r.total_demand for r in records)
    disrupted = math.fsum(r.disrupted_demand for r in records)
    recoverable = math.fsum(r.recoverable_demand for r in records)
    delivered = math.fsum(r.delivered_demand for r in records)
    delivered_recoverable = math.fsum(
        r.delivered_recoverable_demand for r in records
    )
    optimal = math.fsum(r.optimal_demand for r in records)
    stretch_sum = math.fsum(r.stretch_demand_sum for r in records)
    stretch_weight = math.fsum(r.stretch_demand_weight for r in records)
    phase1_loss = math.fsum(r.phase1_loss for r in records)
    merged_hist = merge_histograms(r.utilization_hist for r in records)
    has_hist = sum(merged_hist) > 0
    worst = max(
        records,
        key=lambda r: (r.max_utilization, -r.scenario_index),
        default=None,
    )
    return TrafficWeightedSummary(
        approach=approach,
        scenarios=len(records),
        total_demand=total_demand,
        disrupted_demand=disrupted,
        disrupted_flows=sum(r.disrupted_flows for r in records),
        recoverable_demand=recoverable,
        delivered_demand=delivered,
        delivered_flows=sum(r.delivered_flows for r in records),
        demand_recovery_rate=safe_div(delivered_recoverable, recoverable),
        demand_delivered_fraction=safe_div(delivered, disrupted),
        demand_optimal_rate=safe_div(optimal, recoverable),
        demand_weighted_stretch=safe_div(stretch_sum, stretch_weight),
        max_stretch=max((r.max_stretch for r in records), default=0.0),
        phase1_loss=phase1_loss,
        mean_phase1_window_s=safe_div(phase1_loss, disrupted),
        fallback_demand=math.fsum(r.fallback_demand for r in records),
        error_demand=math.fsum(r.error_demand for r in records),
        max_utilization=max((r.max_utilization for r in records), default=0.0),
        max_overloaded_links=max(
            (r.overloaded_links for r in records), default=0
        ),
        max_overload_demand=max(
            (r.overload_demand for r in records), default=0.0
        ),
        congestion_free_rate=safe_div(
            float(sum(1 for r in records if r.overloaded_links == 0)),
            float(len(records)),
        ),
        utilization_p50=utilization_percentile(merged_hist, 0.50) if has_hist else 0.0,
        utilization_p95=utilization_percentile(merged_hist, 0.95) if has_hist else 0.0,
        utilization_p99=utilization_percentile(merged_hist, 0.99) if has_hist else 0.0,
        worst_overload_attribution=(
            worst.overload_attribution if worst is not None else ()
        ),
        admission_dropped_demand=math.fsum(
            r.admission_dropped_demand for r in records
        ),
    )
