"""Evaluation metrics (§IV-C, §IV-D).

* **Recovery rate** — share of successfully recovered test cases.
* **Optimal recovery rate** — share recovered with the *shortest* recovery
  path (equal cost to the ground-truth shortest path in ``G - E2``).
* **Stretch** — recovery-path cost over optimal cost (1.0 is optimal).
* **Computational overhead** — on-demand shortest-path calculations.
* **Transmission overhead** — recovery bytes carried in packet headers.
* **Wasted computation / transmission** — the same costs spent on packets
  that are ultimately discarded (irrecoverable cases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..simulator import RecoveryResult
from .cases import TestCase

#: Tolerance when comparing path costs for optimality.
COST_TOLERANCE = 1e-9


def _rate(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with a defined 0.0 for an empty base.

    Every summary below uses this so that an empty record list — a sweep
    whose scenarios disrupted nothing, a shard with zero cases of one
    class — aggregates to a defined all-zero row instead of raising.
    """
    if denominator == 0:
        return 0.0
    return numerator / denominator


@dataclass
class CaseRecord:
    """One (test case, approach) outcome with derived metrics."""

    case: TestCase
    result: RecoveryResult

    @property
    def approach(self) -> str:
        """Name of the recovery approach."""
        return self.result.approach

    @property
    def delivered(self) -> bool:
        """Whether the packet reached the destination."""
        return self.result.delivered

    @property
    def status(self) -> str:
        """``delivered`` / ``dropped`` / ``fallback`` / ``error``."""
        return self.result.status

    def stretch(self) -> Optional[float]:
        """Recovery-path cost over optimal cost (delivered cases only)."""
        if not self.delivered or self.case.optimal_cost is None:
            return None
        if self.case.optimal_cost == 0:
            return 1.0
        assert self.result.path is not None
        return self.result.path.cost / self.case.optimal_cost

    def is_optimal(self) -> bool:
        """Whether the recovery path matched the ground-truth shortest."""
        s = self.stretch()
        return s is not None and abs(s - 1.0) <= COST_TOLERANCE


@dataclass
class RecoverableSummary:
    """The Table III row of one approach on one topology."""

    approach: str
    cases: int
    recovery_rate: float
    optimal_recovery_rate: float
    max_stretch: float
    max_sp_computations: int
    mean_sp_computations: float

    def as_dict(self) -> Dict[str, object]:
        """Row form for reports."""
        return {
            "approach": self.approach,
            "cases": self.cases,
            "recovery_rate_pct": round(100.0 * self.recovery_rate, 1),
            "optimal_recovery_rate_pct": round(
                100.0 * self.optimal_recovery_rate, 1
            ),
            "max_stretch": round(self.max_stretch, 2),
            "max_sp_computations": self.max_sp_computations,
            "mean_sp_computations": round(self.mean_sp_computations, 2),
        }


def summarize_recoverable(records: Sequence[CaseRecord]) -> RecoverableSummary:
    """Aggregate recoverable-case records into a Table III row.

    Empty input yields a defined all-zero row (never raises).
    """
    approach = records[0].approach if records else ""
    n = len(records)
    delivered = [r for r in records if r.delivered]
    optimal = [r for r in delivered if r.is_optimal()]
    stretches = [r.stretch() for r in delivered]
    sp = [r.result.sp_computations for r in records]
    return RecoverableSummary(
        approach=approach,
        cases=n,
        recovery_rate=_rate(len(delivered), n),
        optimal_recovery_rate=_rate(len(optimal), n),
        max_stretch=max((s for s in stretches if s is not None), default=0.0),
        max_sp_computations=max(sp, default=0),
        mean_sp_computations=_rate(sum(sp), n),
    )


@dataclass
class IrrecoverableSummary:
    """The Table IV row of one approach on one topology."""

    approach: str
    cases: int
    avg_wasted_computation: float
    max_wasted_computation: int
    avg_wasted_transmission: float
    max_wasted_transmission: float
    false_deliveries: int

    def as_dict(self) -> Dict[str, object]:
        """Row form for reports."""
        return {
            "approach": self.approach,
            "cases": self.cases,
            "avg_wasted_computation": round(self.avg_wasted_computation, 2),
            "max_wasted_computation": self.max_wasted_computation,
            "avg_wasted_transmission": round(self.avg_wasted_transmission, 1),
            "max_wasted_transmission": round(self.max_wasted_transmission, 1),
        }


def summarize_irrecoverable(records: Sequence[CaseRecord]) -> IrrecoverableSummary:
    """Aggregate irrecoverable-case records into a Table IV row.

    Empty input yields a defined all-zero row (never raises).
    """
    approach = records[0].approach if records else ""
    sp = [r.result.sp_computations for r in records]
    wasted = [r.result.wasted_transmission() for r in records]
    return IrrecoverableSummary(
        approach=approach,
        cases=len(records),
        avg_wasted_computation=_rate(sum(sp), len(sp)),
        max_wasted_computation=max(sp, default=0),
        avg_wasted_transmission=_rate(sum(wasted), len(wasted)),
        max_wasted_transmission=max(wasted, default=0.0),
        false_deliveries=sum(1 for r in records if r.delivered),
    )


@dataclass
class ResilienceSummary:
    """Degraded-mode health of one approach over one sweep.

    ``delivery_ratio`` counts every delivered packet, including those
    delivered by the reconvergence fallback — that is the operator's view
    ("did traffic get through?").  ``rtr_delivery_ratio`` counts only
    deliveries RTR itself completed, isolating the protocol's own
    resilience from the safety net underneath it.
    """

    approach: str
    cases: int
    delivered: int
    dropped: int
    fallbacks: int
    fallback_deliveries: int
    errors: int
    delivery_ratio: float
    rtr_delivery_ratio: float
    mean_retries: float
    max_retries: int

    def as_dict(self) -> Dict[str, object]:
        """Row form for reports."""
        return {
            "approach": self.approach,
            "cases": self.cases,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "fallbacks": self.fallbacks,
            "fallback_deliveries": self.fallback_deliveries,
            "errors": self.errors,
            "delivery_ratio_pct": round(100.0 * self.delivery_ratio, 1),
            "rtr_delivery_ratio_pct": round(100.0 * self.rtr_delivery_ratio, 1),
            "mean_retries": round(self.mean_retries, 2),
            "max_retries": self.max_retries,
        }


def summarize_resilience(records: Sequence[CaseRecord]) -> ResilienceSummary:
    """Aggregate a (possibly chaotic) sweep into a resilience row.

    Empty input yields a defined all-zero row (never raises).
    """
    approach = records[0].approach if records else ""
    n = len(records)
    by_status: Dict[str, int] = {}
    for r in records:
        by_status[r.status] = by_status.get(r.status, 0) + 1
    fallback_deliveries = sum(
        1 for r in records if r.status == "fallback" and r.delivered
    )
    all_delivered = sum(1 for r in records if r.delivered)
    retries = [r.result.retries for r in records]
    return ResilienceSummary(
        approach=approach,
        cases=n,
        delivered=by_status.get("delivered", 0),
        dropped=by_status.get("dropped", 0),
        fallbacks=by_status.get("fallback", 0),
        fallback_deliveries=fallback_deliveries,
        errors=by_status.get("error", 0),
        delivery_ratio=_rate(all_delivered, n),
        rtr_delivery_ratio=_rate(by_status.get("delivered", 0), n),
        mean_retries=_rate(sum(retries), n),
        max_retries=max(retries, default=0),
    )


def stretch_values(records: Sequence[CaseRecord]) -> List[float]:
    """Stretch of every delivered case (Fig. 8's sample)."""
    return [s for r in records if (s := r.stretch()) is not None]


def sp_computation_values(records: Sequence[CaseRecord]) -> List[int]:
    """Shortest-path calculation counts (Figs. 9 and 12's samples)."""
    return [r.result.sp_computations for r in records]


def wasted_transmission_values(records: Sequence[CaseRecord]) -> List[float]:
    """Wasted transmission of every record (Fig. 13's sample)."""
    return [r.result.wasted_transmission() for r in records]


def phase1_duration_values(records: Sequence[CaseRecord]) -> List[float]:
    """Phase-1 durations in seconds (Fig. 7's sample; RTR only)."""
    return [r.result.phase1_duration for r in records]


def savings_ratio(baseline: float, ours: float) -> float:
    """Fractional saving of ``ours`` relative to ``baseline`` (§I claims)."""
    if baseline <= 0:
        return 0.0
    return 1.0 - ours / baseline
