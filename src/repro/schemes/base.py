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
   (one :class:`~repro.failures.FailureScenario`, and the window's live
   :class:`~repro.te.penalty.LinkPenalty` when it routes under load):
   build the per-scenario protocol state a router would hold until the
   IGP reconverges (RTR's phase-1 walks and phase-2 trees, FCP's header
   machinery);
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

from .. import obs
from ..chaos import ChaosForwardingEngine, FaultPlan
from ..errors import EvaluationError
from ..routing import RoutingTable, SPTCache
from ..simulator import run_plan
from ..topology import Topology

if TYPE_CHECKING:  # typing only — repro.eval imports this package
    from ..eval.cases import TestCase
    from ..failures import FailureScenario
    from ..simulator import RecoveryResult
    from ..te.penalty import LinkPenalty

log = obs.get_logger(__name__)


class SchemeLifecycleError(EvaluationError):
    """A scheme method was called out of lifecycle order."""


class SchemeInstance:
    """Per-scenario state of one scheme: one IGP convergence window.

    Adapts a protocol object (:class:`~repro.core.RTR`,
    :class:`~repro.schemes.fcp.FCP`, ...) whose one recovery entry point is
    ``plan_recovery(initiator, destination, trigger_neighbor)`` returning
    a :class:`~repro.simulator.WalkPlan`; a protocol that walks packets
    also exposes the ``engine`` its plans walk on.
    """

    def __init__(self, scheme_name: str, protocol: object) -> None:
        self.scheme_name = scheme_name
        self.protocol = protocol
        #: The forwarding engine the plans walk on (``None``: walk-free).
        self.engine = getattr(protocol, "engine", None)

    def recover(self, case: "TestCase") -> "RecoveryResult":
        """Run one recovery attempt for ``case``: plan, walk, finish.

        A failed initiator raises :class:`SimulationError` in every
        built-in scheme.
        """
        return run_plan(
            self.engine,
            self.protocol.plan_recovery(  # type: ignore[attr-defined]
                case.initiator, case.destination, case.trigger
            ),
        )

    def plan(self, case: "TestCase"):
        """Compile ``case`` into its first :class:`~repro.simulator.WalkPlan`."""
        return self.protocol.plan_recovery(  # type: ignore[attr-defined]
            case.initiator, case.destination, case.trigger
        )


class RecoveryScheme:
    """Base class of every registered recovery scheme.

    Subclasses set :attr:`name`, implement :meth:`_instantiate`, and may
    override :meth:`_prepare` for per-topology precomputation.  The
    constructor must accept (and is free to ignore) arbitrary keyword
    options — drivers pass one shared option bag to every scheme so that
    e.g. ``rtr_config`` can ride through a generic runner untouched.

    The one option no walking scheme may ignore is ``fault_plan``: each
    :meth:`_instantiate` hands :attr:`fault_plan` to its protocol's
    constructor, which builds its view and engine with
    :func:`~repro.chaos.forwarding_world`.  Load enters the same way, as
    the ``penalty`` argument of :meth:`_instantiate`; a scheme that does
    not route on load ignores it.
    """

    #: Registry key and ``--approaches`` name of this scheme.
    name: ClassVar[str] = ""

    def __init__(
        self, fault_plan: Optional[FaultPlan] = None, **options: object
    ) -> None:
        #: Fault injection every instance of this scheme runs under.
        self.fault_plan = fault_plan
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

    def instantiate(
        self, scenario: "FailureScenario", penalty: Optional["LinkPenalty"] = None
    ) -> SchemeInstance:
        """Build the per-scenario protocol state of one convergence window.

        ``penalty`` is the window's live load picture (``None``: route on
        the base metric); its holder refreshes it in place between cases.
        A scheme whose protocol has no chaos engine under a non-null
        :attr:`fault_plan` (the oracle and OSPF have no forwarding
        surface) runs unperturbed — loudly: counted as
        ``chaos.degrade.unsupported.<name>`` and logged, never silently.
        """
        if not self._prepared:
            raise SchemeLifecycleError(
                f"scheme {self.name!r} was instantiated before prepare(); "
                "call prepare(topo, routing, sp_cache) once per topology first"
            )
        instance = self._instantiate(scenario, penalty)
        plan = self.fault_plan
        if (
            plan is not None
            and not plan.is_null()
            and not isinstance(instance.engine, ChaosForwardingEngine)
        ):
            obs.inc(f"chaos.degrade.unsupported.{self.name}")
            log.warning(
                "scheme %s has no degradable forwarding surface; "
                "FaultPlan has no effect on it",
                self.name,
            )
        return instance

    def _instantiate(
        self, scenario: "FailureScenario", penalty: Optional["LinkPenalty"]
    ) -> SchemeInstance:
        raise NotImplementedError

    # -- introspection -------------------------------------------------

    @classmethod
    def describe(cls) -> str:
        """One-line summary (the docstring's first line) for listings."""
        doc = (cls.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""
