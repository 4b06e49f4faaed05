"""The walk plane: packet-walk mechanics behind the scheme decision layer.

This is the mechanics half of the forwarding plane's decision/mechanics
split (DESIGN.md §15).  Schemes compile each case into walk plans
(:mod:`repro.simulator.walkspec`); :func:`run_plan` runs one case to its
result — plan, walk, finish, and again while ``finish`` returns a next
plan.  Each walk executes through a :class:`WalkBatch` on the
:class:`~repro.simulator.engine.ForwardingEngine` loops and the
table-walk loop below.

Observability: every walk increments ``simulator.walks.executed`` (the
engine entry points count themselves, so direct per-packet calls are
visible too).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .. import obs
from ..errors import SimulationError
from .engine import ForwardingEngine
from .packet import Packet
from .stats import RecoveryAccounting, RecoveryResult
from .walkspec import (
    CallbackWalkSpec,
    SourceRouteSpec,
    TableWalkOutcome,
    TableWalkSpec,
    WalkPlan,
)

def batched_walk_count() -> int:
    """Walks executed by a vectorized engine in this process: always 0.

    There is one walk engine (DESIGN.md §15).  The accessor stays because
    ``benchmarks/e2e`` resolves it by name for its ``simulator.walks_batched``
    layer metric.
    """
    return 0


def run_table_walk(
    engine: ForwardingEngine,
    packet: Packet,
    next_hops,
    destination: int,
    budget: int,
    accounting: RecoveryAccounting,
) -> TableWalkOutcome:
    """Table walk: one packet, one next-hop table.

    Exactly the historical MRC loop: destination check before table
    lookup, an unreachable table hop drops (MRC may switch configurations
    only once), an exhausted budget truncates.  Loss injection does *not*
    apply here — table walks carry data packets, and the chaos loss
    stream samples recovery transmissions (walks and source routes) only,
    matching the historical per-scheme behaviour; a chaos engine still
    advances the hop clock through ``forward_one_hop``.
    """
    obs.inc("simulator.walks.executed")
    visited = [packet.at]
    view = engine.view
    for _ in range(budget):
        current = packet.at
        if current == destination:
            return TableWalkOutcome(visited=visited, reached=True)
        nxt = next_hops.get(current)
        if nxt is None:
            return TableWalkOutcome(
                visited=visited,
                reached=False,
                drop_node=current,
                drop_reason=f"no table next hop at {current}",
            )
        if not view.is_neighbor_reachable(current, nxt):
            return TableWalkOutcome(
                visited=visited,
                reached=False,
                drop_node=current,
                drop_reason=f"table hop {current} -> {nxt} is unreachable",
            )
        engine.forward_one_hop(packet, nxt, accounting)
        visited.append(nxt)
    return TableWalkOutcome(
        visited=visited,
        reached=False,
        drop_node=packet.at,
        drop_reason=f"table walk exceeded {budget} hops without terminating",
        truncated=True,
    )


class WalkBatch:
    """Executes a batch of walk specs under one forwarding context.

    Usage::

        batch = WalkBatch(engine)
        h = batch.add(spec, packet, accounting)
        outcome = batch.execute().result(h)

    ``execute`` runs every request exactly once, *in insertion order* —
    the property seeded fault streams rely on: a chaos engine draws once
    per prospective hop in walk order.  A request that raises has its
    exception captured and re-raised from :meth:`result`, so one bad case
    cannot poison its batch neighbours.
    """

    def __init__(self, engine: Optional[ForwardingEngine]) -> None:
        self.engine = engine
        self._requests: List[Tuple[object, Packet, RecoveryAccounting]] = []
        self._results: Optional[List[object]] = None

    def add(self, spec, packet: Packet, accounting: RecoveryAccounting) -> int:
        """Queue one spec; returns the handle to pass to :meth:`result`."""
        if self._results is not None:
            raise SimulationError("WalkBatch already executed; create a new batch")
        if self.engine is None:
            raise SimulationError("WalkBatch has no engine to execute walks with")
        self._requests.append((spec, packet, accounting))
        return len(self._requests) - 1

    # -- execution ------------------------------------------------------

    def execute(self) -> "WalkBatch":
        if self._results is not None:
            raise SimulationError("WalkBatch already executed")
        requests = self._requests
        results: List[object] = [None] * len(requests)
        self._results = results
        for i, request in enumerate(requests):
            try:
                results[i] = self._run(*request)
            except Exception as exc:  # noqa: BLE001 — re-raised in result()
                results[i] = _CapturedError(exc)
        return self

    def result(self, handle: int):
        """The outcome of one request, re-raising its captured exception."""
        if self._results is None:
            raise SimulationError("WalkBatch.result() before execute()")
        outcome = self._results[handle]
        if isinstance(outcome, _CapturedError):
            raise outcome.exc
        return outcome

    def _run(self, spec, packet: Packet, accounting: RecoveryAccounting):
        engine = self.engine
        if isinstance(spec, SourceRouteSpec):
            return engine.follow_source_route_outcome(packet, spec.route, accounting)
        if isinstance(spec, TableWalkSpec):
            return run_table_walk(
                engine, packet, spec.next_hops, spec.destination, spec.budget, accounting
            )
        if isinstance(spec, CallbackWalkSpec):
            return engine.walk_outcome(
                packet,
                spec.decide,
                accounting,
                max_hops=spec.max_hops,
                on_overrun=spec.on_overrun,
            )
        raise SimulationError(f"unknown walk spec {type(spec).__name__}")


class _CapturedError:
    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


def run_plan(engine: Optional[ForwardingEngine], plan: WalkPlan) -> RecoveryResult:
    """Run one case to its result: walk each plan, then let it finish.

    A plan's ``finish`` may return the next plan of the same case; each
    walk is a batch of one, executed in the order the case asks for it.
    """
    while isinstance(plan, WalkPlan):
        if plan.immediate is not None:
            return plan.immediate
        batch = WalkBatch(engine)
        handle = batch.add(plan.spec, plan.packet, plan.accounting)
        plan = plan.finish(batch.execute().result(handle))
    return plan
