"""Runs registered recovery schemes over generated test cases.

The runner is a thin, scheme-agnostic driver over the
:mod:`repro.schemes` lifecycle: it resolves approach names through the
scheme registry, calls :meth:`~repro.schemes.RecoveryScheme.prepare`
once per topology, :meth:`~repro.schemes.RecoveryScheme.instantiate`
once per failure scenario (one IGP convergence window, the way a real
deployment amortizes state), and
:meth:`~repro.schemes.SchemeInstance.recover` once per case.  Any name
in the registry — built-in, OSPF baseline, or a plugin loaded via
``REPRO_SCHEME_MODULES`` — runs here with zero runner edits.

Robustness: a sweep is thousands of cases, and in degraded-mode
experiments individual cases *will* hit pathological corners.  With
``isolate_errors`` (the default) a scheme crash on one case is caught
and recorded as an ``error`` :class:`~repro.eval.metrics.CaseRecord`
instead of aborting the whole sweep; pass a
:class:`~repro.chaos.FaultPlan` to run every scheme under injected
faults (schemes wrap in :class:`~repro.schemes.FaultedScheme`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import obs
from ..chaos import FaultPlan
from ..core import RTRConfig
from ..routing import RoutingTable, SPTCache
from ..schemes import SchemeInstance, build_schemes, validate_names
from ..simulator import RecoveryAccounting, RecoveryResult, WalkBatch
from ..topology import Topology
from .cases import CaseSet, TestCase
from .metrics import CaseRecord

#: Default comparison set, in the paper's Table III order.
ALL_APPROACHES = ("RTR", "FCP", "MRC")

log = obs.get_logger(__name__)


class EvaluationRunner:
    """Executes test cases under one or more registered recovery schemes."""

    def __init__(
        self,
        topo: Topology,
        routing: Optional[RoutingTable] = None,
        approaches: Sequence[str] = ALL_APPROACHES,
        rtr_config: Optional[RTRConfig] = None,
        mrc_seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        isolate_errors: bool = True,
        sp_cache: Optional[SPTCache] = None,
        spt_cache_entries: Optional[int] = None,
    ) -> None:
        validate_names(approaches)
        self.topo = topo
        #: Sweep-wide SPT pool shared by every per-scenario scheme
        #: instance; pre-failure trees in particular are scenario-invariant.
        #: ``spt_cache_entries`` sizes the pool when the runner builds its
        #: own cache — at 50k+ nodes each tree is megabytes, so the sweep
        #: driver (or ``--spt-cache-entries``) trades memory against
        #: recomputation; watch ``routing.sptcache.evictions`` for thrash.
        if sp_cache is not None:
            self.sp_cache = sp_cache
        elif spt_cache_entries is not None:
            if spt_cache_entries < 1:
                raise ValueError(
                    f"spt_cache_entries must be >= 1, got {spt_cache_entries}"
                )
            self.sp_cache = SPTCache(max_entries=spt_cache_entries)
        else:
            self.sp_cache = SPTCache()
        self.routing = routing if routing is not None else RoutingTable(topo)
        self.approaches = tuple(approaches)
        self.rtr_config = rtr_config
        #: Fault injection applied to *every* scheme via the
        #: :class:`~repro.schemes.FaultedScheme` wrapper (RTR keeps its
        #: native hardened ladder; baselines get the degraded view/engine).
        self.fault_plan = fault_plan
        #: Catch per-case scheme crashes and record them as ``error``
        #: results instead of aborting the sweep.
        self.isolate_errors = isolate_errors
        self.schemes = build_schemes(
            self.approaches,
            fault_plan=fault_plan,
            rtr_config=rtr_config,
            mrc_seed=mrc_seed,
        )
        for scheme in self.schemes.values():
            scheme.prepare(topo, self.routing, self.sp_cache)
        self._case_counters = {
            name: f"eval.cases.scheme.{name}" for name in self.approaches
        }

    def _instances(self, scenario_index: int, case_set: CaseSet) -> Dict[str, SchemeInstance]:
        scenario = case_set.scenarios[scenario_index]
        return {
            name: scheme.instantiate(scenario)
            for name, scheme in self.schemes.items()
        }

    def run(self, case_set: CaseSet) -> Dict[str, List[CaseRecord]]:
        """Run every case under every approach.

        Returns ``approach -> [CaseRecord]`` with records in case order.

        Within one convergence window, schemes that compile cases into
        walk plans (:meth:`~repro.schemes.SchemeInstance.can_plan`) have
        all their walks executed through one :class:`WalkBatch`, in case
        order.  Everything else runs the classic per-case loop.
        """
        records: Dict[str, List[CaseRecord]] = {a: [] for a in self.approaches}
        for scenario_index, cases in sorted(case_set.by_scenario().items()):
            instances = self._instances(scenario_index, case_set)
            for case in cases:
                obs.inc("eval.cases")
            for name in self.approaches:
                instance = instances[name]
                counter = self._case_counters[name]
                if instance.can_plan():
                    results = self._run_batched(instance, name, cases, counter)
                else:
                    results = []
                    for case in cases:
                        obs.inc(counter)
                        results.append(self._recover_one(instance, name, case))
                records[name].extend(
                    CaseRecord(case=case, result=result)
                    for case, result in zip(cases, results)
                )
        return records

    def _run_batched(
        self,
        instance: SchemeInstance,
        name: str,
        cases: Sequence[TestCase],
        counter: str,
    ) -> List[RecoveryResult]:
        """Compile every case to a plan, run all walks in one batch."""
        batch = WalkBatch(instance.walk_engine())
        pending: List[object] = []
        for case in cases:
            obs.inc(counter)
            try:
                plan = instance.plan(case)
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                if not self.isolate_errors:
                    raise
                pending.append(self._error_result(name, case, exc))
                continue
            if plan.immediate is not None:
                pending.append(plan.immediate)
            else:
                pending.append((plan, batch.add(plan.spec, plan.packet, plan.accounting)))
        batch.execute()
        results: List[RecoveryResult] = []
        for case, entry in zip(cases, pending):
            if not isinstance(entry, tuple):
                results.append(entry)
                continue
            plan, handle = entry
            try:
                results.append(plan.finish(batch.result(handle)))
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                if not self.isolate_errors:
                    raise
                results.append(self._error_result(name, case, exc))
        return results

    def _recover_one(
        self, instance: SchemeInstance, name: str, case: TestCase
    ) -> RecoveryResult:
        """Run one case, isolating per-case crashes when configured."""
        if not self.isolate_errors:
            return instance.recover(case)
        try:
            return instance.recover(case)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            return self._error_result(name, case, exc)

    def _error_result(
        self, name: str, case: TestCase, exc: Exception
    ) -> RecoveryResult:
        """Record one isolated per-case crash as an ``error`` result."""
        obs.inc("eval.errors")
        log.warning(
            "%s crashed on case %s -> %s (trigger %s): %s: %s",
            name,
            case.initiator,
            case.destination,
            case.trigger,
            type(exc).__name__,
            exc,
        )
        return RecoveryResult(
            approach=name,
            delivered=False,
            path=None,
            accounting=RecoveryAccounting(),
            error=f"{type(exc).__name__}: {exc}",
        )

    def run_cases(
        self, case_set: CaseSet, cases: Sequence[TestCase]
    ) -> Dict[str, List[CaseRecord]]:
        """Run only a chosen subset of cases (must come from ``case_set``)."""
        subset = CaseSet(
            topo=case_set.topo,
            routing=case_set.routing,
            scenarios=case_set.scenarios,
            cases=list(cases),
        )
        return self.run(subset)
