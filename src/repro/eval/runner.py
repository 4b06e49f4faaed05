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
experiments individual cases *will* hit pathological corners.  A scheme
crash on one case is caught and recorded as an ``error``
:class:`~repro.eval.metrics.CaseRecord` instead of aborting the whole
sweep; pass a :class:`~repro.chaos.FaultPlan` to run every scheme under
injected faults (each scheme receives it at construction).

Load enters the way faults do, at instantiation: the ``load`` hook of
:meth:`EvaluationRunner.run` hands each scheme its live
:class:`~repro.te.penalty.LinkPenalty` (DESIGN.md §14).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..chaos import FaultPlan
from ..core import RTRConfig
from ..routing import RoutingTable, SPTCache
from ..schemes import SchemeInstance, build_schemes, validate_names
from ..simulator import RecoveryAccounting, RecoveryResult
from ..topology import Topology
from .cases import CaseSet, TestCase
from .metrics import CaseRecord

if TYPE_CHECKING:  # typing only
    from ..te.penalty import LinkPenalty

#: ``settle(position, result) -> result``, after each case of a live window.
Settle = Callable[[int, RecoveryResult], RecoveryResult]
#: ``load(name) -> (penalty, settle)`` of one approach over one window.
LoadHook = Callable[[str], Tuple[Optional["LinkPenalty"], Optional[Settle]]]

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
        sp_cache: Optional[SPTCache] = None,
    ) -> None:
        validate_names(approaches)
        self.topo = topo
        #: Sweep-wide SPT pool shared by every per-scenario scheme
        #: instance; pre-failure trees in particular are scenario-invariant.
        self.sp_cache = sp_cache if sp_cache is not None else SPTCache()
        self.routing = routing if routing is not None else RoutingTable(topo)
        self.approaches = tuple(approaches)
        self.rtr_config = rtr_config
        #: Fault injection every scheme is constructed with (RTR also
        #: switches to its hardened ladder under it).
        self.fault_plan = fault_plan
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

    def run(
        self, case_set: CaseSet, load: Optional[LoadHook] = None
    ) -> Dict[str, List[CaseRecord]]:
        """Run every case under every approach.

        Returns ``approach -> [CaseRecord]`` with records in case order.
        One convergence window at a time, each scheme runs its cases one
        by one, each to its result: plan, walk, finish.

        ``load``, when given, is asked once per window and approach for
        that approach's ``(penalty, settle)``: the instance is built with
        ``penalty``, and ``settle`` sees every result before it is
        recorded and before the next case is planned.
        """
        records: Dict[str, List[CaseRecord]] = {a: [] for a in self.approaches}
        for scenario_index, cases in sorted(case_set.by_scenario().items()):
            scenario = case_set.scenarios[scenario_index]
            obs.inc("eval.cases", len(cases))
            for name in self.approaches:
                penalty, settle = load(name) if load is not None else (None, None)
                instance = self.schemes[name].instantiate(scenario, penalty=penalty)
                counter = self._case_counters[name]
                for position, case in enumerate(cases):
                    obs.inc(counter)
                    result = self._recover_one(instance, name, case)
                    if settle is not None:
                        result = settle(position, result)
                    records[name].append(CaseRecord(case=case, result=result))
        return records

    def _recover_one(
        self, instance: SchemeInstance, name: str, case: TestCase
    ) -> RecoveryResult:
        """Run one case; a crash is logged and becomes its ``error`` result."""
        try:
            return instance.recover(case)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
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
