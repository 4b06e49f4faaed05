"""The walk plane: packet-walk mechanics behind the scheme decision layer.

This is the mechanics half of the forwarding plane's decision/mechanics
split (DESIGN.md §15).  Schemes compile each case into walk plans
(:mod:`repro.simulator.walkspec`); :func:`run_plan` runs one case to its
result — plan, walk, finish, and again while ``finish`` returns a next
plan.  Each walk is ``spec.walk(engine, packet, accounting)``, the spec's
own hop loop on the :class:`~repro.simulator.engine.ForwardingEngine`.

Observability: every walk increments ``simulator.walks.executed`` (each
spec's loop counts itself, so direct calls are visible too).
"""

from __future__ import annotations

from typing import Optional

from .engine import ForwardingEngine
from .packet import Packet
from .stats import RecoveryAccounting, RecoveryResult
from .walkspec import WalkPlan


def batched_walk_count() -> int:
    """Walks executed by a vectorized engine in this process: always 0.

    There is one walk engine (DESIGN.md §15).  The accessor stays because
    ``benchmarks/e2e`` resolves it by name for its ``simulator.walks_batched``
    layer metric.
    """
    return 0


class WalkBatch:
    """One walk: ``add`` stores it, ``execute`` runs it and returns the outcome.

    A shim over ``spec.walk``, kept because ``benchmarks/e2e/tracing.py``
    counts ``add`` and times ``execute`` by name.
    """

    def __init__(self, engine: Optional[ForwardingEngine]) -> None:
        self.engine = engine

    def add(self, spec, packet: Packet, accounting: RecoveryAccounting) -> None:
        self._walk = (spec, packet, accounting)

    def execute(self):
        spec, packet, accounting = self._walk
        return spec.walk(self.engine, packet, accounting)


def run_plan(engine: Optional[ForwardingEngine], plan: WalkPlan) -> RecoveryResult:
    """Run one case to its result: walk each plan, then let it finish.

    A plan's ``finish`` may return the next plan of the same case; the
    walks run in the order the case asks for them.
    """
    while isinstance(plan, WalkPlan):
        if plan.immediate is not None:
            return plan.immediate
        batch = WalkBatch(engine)
        batch.add(plan.spec, plan.packet, plan.accounting)
        plan = plan.finish(batch.execute())
    return plan
