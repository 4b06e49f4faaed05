"""The recovery-scheme contract: a three-stage lifecycle.

The paper's evaluation is a head-to-head of recovery schemes, and the
comparison set keeps growing (enhanced-MRC variants, proactive
alternate-path schemes, plain IGP reconvergence).  Every scheme reduces
to the same lifecycle, mirroring what a real deployment amortizes at
each timescale:

1. :meth:`RecoveryScheme.prepare` — once per **topology**: bind the
   shared routing table and sweep-wide :class:`~repro.routing.SPTCache`,
   build whatever per-topology state the scheme precomputes (MRC's
   backup configurations, for example);
2. :meth:`RecoveryScheme.instantiate` — once per **convergence window**
   (one :class:`~repro.failures.FailureScenario`): build the per-scenario
   protocol state a router would hold until the IGP reconverges (RTR's
   phase-1 walks and phase-2 trees, FCP's header machinery);
3. :meth:`SchemeInstance.recover` — once per **packet pair** (one
   :class:`~repro.eval.cases.TestCase`): compile the case into a
   :class:`~repro.simulator.WalkPlan`, walk it, finish it, and return
   the existing :class:`~repro.simulator.RecoveryResult`.

Drivers (:class:`~repro.eval.runner.EvaluationRunner`, the traffic
engine, the parallel shards) speak only this contract, so adding a
scheme is one module plus a :func:`~repro.schemes.register_scheme`
decorator — no runner, sharding, or traffic edits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Optional

from ..errors import EvaluationError
from ..routing import RoutingTable, SPTCache
from ..simulator import run_plan
from ..topology import Topology

if TYPE_CHECKING:  # typing only — repro.eval imports this package
    from ..chaos import ChaosRuntime, FaultPlan
    from ..eval.cases import TestCase
    from ..failures import FailureScenario
    from ..simulator import RecoveryResult


class SchemeLifecycleError(EvaluationError):
    """A scheme method was called out of lifecycle order."""


class SchemeInstance:
    """Per-scenario state of one scheme: one IGP convergence window.

    Adapts a protocol object (:class:`~repro.core.RTR`,
    :class:`~repro.baselines.FCP`, ...) whose one recovery entry point is
    ``plan_recovery(initiator, destination, trigger_neighbor)`` returning
    a :class:`~repro.simulator.WalkPlan`; a protocol that walks packets
    also exposes the ``engine`` its plans walk on.
    """

    def __init__(self, scheme_name: str, protocol: object) -> None:
        self.scheme_name = scheme_name
        self.protocol = protocol

    def recover(self, case: "TestCase") -> "RecoveryResult":
        """Run one recovery attempt for ``case``: plan, walk, finish."""
        protocol = self.protocol
        return run_plan(
            getattr(protocol, "engine", None),
            protocol.plan_recovery(  # type: ignore[attr-defined]
                case.initiator, case.destination, case.trigger
            ),
        )

    def plan(self, case: "TestCase"):
        """Compile ``case`` into its first :class:`~repro.simulator.WalkPlan`."""
        return self.protocol.plan_recovery(  # type: ignore[attr-defined]
            case.initiator, case.destination, case.trigger
        )

    def degrade(self, plan: "FaultPlan", runtime: "ChaosRuntime") -> bool:
        """Swap this instance's world for a fault-injected one.

        The generic hook behind :class:`~repro.schemes.faults.FaultedScheme`
        for schemes without native degraded-mode support: the protocol's
        ``view``/``engine`` pair is replaced by a
        :class:`~repro.chaos.DegradedLocalView` and a
        :class:`~repro.chaos.ChaosForwardingEngine` sharing one runtime,
        so detection faults, secondary flaps, and the hop clock perturb
        the scheme exactly as they would RTR.  Returns ``False`` when the
        scheme has no forwarding surface to degrade (e.g. the oracle).
        """
        from ..chaos import ChaosForwardingEngine, DegradedLocalView

        protocol = self.protocol
        view = getattr(protocol, "view", None)
        engine = getattr(protocol, "engine", None)
        scenario = getattr(protocol, "scenario", None)
        if view is None or engine is None or scenario is None:
            return False
        degraded = DegradedLocalView(scenario, plan, runtime)
        protocol.view = degraded  # type: ignore[attr-defined]
        protocol.engine = ChaosForwardingEngine(  # type: ignore[attr-defined]
            protocol.topo, degraded, runtime, engine.delay_model
        )
        return True


class RecoveryScheme:
    """Base class of every registered recovery scheme.

    Subclasses set :attr:`name`, implement :meth:`_instantiate`, and may
    override :meth:`_prepare` for per-topology precomputation.  The
    constructor must accept (and is free to ignore) arbitrary keyword
    options — drivers pass one shared option bag to every scheme so that
    e.g. ``rtr_config`` can ride through a generic runner untouched.
    """

    #: Registry key and ``--approaches`` name of this scheme.
    name: ClassVar[str] = ""

    def __init__(self, **options: object) -> None:
        self.options = options
        self.topo: Optional[Topology] = None
        self.routing: Optional[RoutingTable] = None
        self.sp_cache: Optional[SPTCache] = None
        self._prepared = False

    # -- stage 1: once per topology ------------------------------------

    def prepare(
        self, topo: Topology, routing: RoutingTable, sp_cache: SPTCache
    ) -> None:
        """Bind per-topology shared state; must precede :meth:`instantiate`."""
        self.topo = topo
        self.routing = routing
        self.sp_cache = sp_cache
        self._prepared = True
        self._prepare()

    def _prepare(self) -> None:
        """Per-topology precomputation hook (default: nothing)."""

    # -- stage 2: once per convergence window --------------------------

    def instantiate(self, scenario: "FailureScenario") -> SchemeInstance:
        """Build the per-scenario protocol state of one convergence window."""
        if not self._prepared:
            raise SchemeLifecycleError(
                f"scheme {self.name!r} was instantiated before prepare(); "
                "call prepare(topo, routing, sp_cache) once per topology first"
            )
        return self._instantiate(scenario)

    def _instantiate(self, scenario: "FailureScenario") -> SchemeInstance:
        raise NotImplementedError

    def instantiate_degraded(
        self, scenario: "FailureScenario", plan: "FaultPlan"
    ) -> Optional[SchemeInstance]:
        """Native fault-injected instantiation, or ``None`` (the default).

        Schemes with their own degraded-mode machinery (RTR's hardened
        retry ladder) override this; for everyone else
        :class:`~repro.schemes.faults.FaultedScheme` falls back to the
        generic :meth:`SchemeInstance.degrade` view/engine swap.
        """
        return None

    # -- introspection -------------------------------------------------

    @classmethod
    def describe(cls) -> str:
        """One-line summary (the docstring's first line) for listings."""
        doc = (cls.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""
