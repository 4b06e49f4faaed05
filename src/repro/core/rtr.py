"""RTR: Reactive Two-phase Rerouting — the paper's contribution.

:class:`RTR` ties the two phases together for one failure event:

1. a router whose default next hop toward some destination became
   unreachable invokes recovery (it is the *recovery initiator*),
2. phase 1 walks a packet around the failure area collecting failed-link
   ids (:mod:`repro.core.phase1`) — once per initiator, reused for every
   affected destination,
3. phase 2 computes the new shortest path on ``G - E1`` and source-routes
   packets along it (:mod:`repro.core.phase2`).

Accounting follows §IV: each test case is charged its phase-1 walk, exactly
one shortest-path calculation, and the phase-2 delivery attempt.

Degraded mode
-------------
Given a :class:`~repro.chaos.FaultPlan`, the instance builds its
degraded view and engine with :func:`~repro.chaos.forwarding_world`
(as every walking scheme does) and climbs a graceful fallback ladder
instead of aborting.  Rungs 2 and 3 are the ``finish``
continuation of each phase-2 delivery plan: the walk outcome decides
whether the next plan is a resend, a recomputation, or none.

1. a lost or truncated phase-1 walk is retried with exponential backoff
   (``max_phase1_retries``);
2. a phase-2 packet lost in flight is resent (``max_phase2_resends``);
3. a phase-2 packet discarded at a failure phase 1 *missed* teaches the
   initiator that link, and recomputation is re-invoked with the grown
   ``E1`` (``max_phase2_reinvocations`` — the §III-D extension);
4. when the ladder is exhausted, traffic falls back to waiting out
   OSPF/IGP reconvergence (``fallback_to_reconvergence``) — delivery then
   succeeds exactly when the destination survives in ``G - E2``, at
   convergence-timescale cost.

With no fault plan every knob is inert and behaviour is bit-identical to
the paper's idealized design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from .. import obs
from ..chaos import ChaosRuntime, FaultPlan, forwarding_world
from ..errors import SimulationError
from ..failures import FailureScenario, LocalView, find_initiator
from ..routing import LinkStateProtocol, RoutingTable, SPTCache
from ..simulator import (
    DEFAULT_PAYLOAD_BYTES,
    RecoveryAccounting,
    RecoveryResult,
    SourceRouteSpec,
    WalkPlan,
    run_plan,
)
from ..topology import Link, Topology
from .phase1 import Phase1Result, run_phase1
from .phase2 import (
    Phase2Engine,
    Phase2Result,
    compile_phase2_delivery,
    no_route_result,
    phase2_result_from_outcome,
)

if TYPE_CHECKING:  # typing only
    from ..te.penalty import LinkPenalty

APPROACH_NAME = "RTR"

log = obs.get_logger(__name__)


@dataclass
class RTRConfig:
    """Behavioural knobs of RTR (defaults = the paper's design)."""

    #: Enforce Constraints 1 and 2 (§III-C).  Disabling reproduces the
    #: general-graph forwarding disorders of Figs. 4-5 (ablation).
    use_constraints: bool = True
    #: Phase-2 engine: incremental SPT update (§III-D) vs full Dijkstra.
    use_incremental: bool = True
    #: Mirror the sweep (ablation; the paper rotates counterclockwise).
    clockwise: bool = False
    #: Phase-1 collector: ``"sweep"`` (the paper's right-hand walk) or
    #: ``"exhaustive"`` (the complete-but-costly DFS alternative §III-C
    #: rejects — see :mod:`repro.core.exhaustive`).
    collector: str = "sweep"
    #: Retransmissions of a lost/truncated phase-1 walk (degraded mode
    #: only — without injected faults a walk cannot be lost).
    max_phase1_retries: int = 3
    #: Resends of a phase-2 packet lost in flight (degraded mode only).
    max_phase2_resends: int = 2
    #: §III-D re-invocations: recomputations after learning a failed link
    #: from a phase-2 drop.  0 preserves the paper's discard-on-miss
    #: behaviour (and the §IV accounting of exactly one SP calculation).
    max_phase2_reinvocations: int = 0
    #: Base of the exponential retry backoff, in seconds of sim clock.
    retry_backoff_s: float = 0.01
    #: When the whole ladder fails, model traffic waiting out IGP
    #: reconvergence instead of reporting a plain drop.
    fallback_to_reconvergence: bool = False

    def __post_init__(self) -> None:
        if self.collector not in ("sweep", "exhaustive"):
            raise ValueError(f"unknown collector {self.collector!r}")
        for name in (
            "max_phase1_retries",
            "max_phase2_resends",
            "max_phase2_reinvocations",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")

    @classmethod
    def hardened(cls, **overrides) -> "RTRConfig":
        """The degraded-mode profile: full fallback ladder enabled."""
        defaults = dict(
            max_phase1_retries=3,
            max_phase2_resends=2,
            max_phase2_reinvocations=2,
            fallback_to_reconvergence=True,
        )
        defaults.update(overrides)
        return cls(**defaults)


class RTR:
    """RTR recovery over one failure scenario.

    The instance owns the per-initiator phase-1 cache and per-initiator
    phase-2 trees, mirroring the state a real router would keep during one
    IGP convergence window.

    Handed a live :class:`~repro.te.penalty.LinkPenalty`, phase 2 routes
    in the load-penalized metric and drops its engines whenever the
    penalty's ``version`` has moved (their trees chose under older load);
    phase-1 walks stay cached, as the sweep is load-oblivious.
    """

    def __init__(
        self,
        topo: Topology,
        scenario: FailureScenario,
        routing: Optional[RoutingTable] = None,
        config: Optional[RTRConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        sp_cache: Optional[SPTCache] = None,
        penalty: Optional["LinkPenalty"] = None,
    ) -> None:
        self.topo = topo
        self.scenario = scenario
        #: Shared SPT pool for phase-2 recomputation and the reconvergence
        #: fallback oracle; a sweep-wide cache reuses pre-failure trees
        #: across scenarios.
        self.sp_cache = sp_cache if sp_cache is not None else SPTCache()
        #: The consistent pre-failure routing view (§II-A); used to find the
        #: default next hop that triggers recovery.
        self.routing = routing if routing is not None else RoutingTable(topo)
        faulted = fault_plan is not None and not fault_plan.is_null()
        self.config = config or (RTRConfig.hardened() if faulted else RTRConfig())
        self.view, self.engine = forwarding_world(topo, scenario, fault_plan)
        #: The injectors' shared runtime (``None`` in the idealized world).
        self.chaos: Optional[ChaosRuntime] = (
            self.engine.runtime if faulted else None  # type: ignore[attr-defined]
        )
        #: Ground truth for telling "really reachable" apart from
        #: "failure not yet detected" (the simulator may consult it;
        #: the protocol never does).
        self._truth_view = LocalView(scenario) if faulted else self.view
        self._phase1_cache: Dict[int, Phase1Result] = {}
        self._phase2_cache: Dict[int, Phase2Engine] = {}
        #: The live load penalty phase 2 routes under (``None``: base metric).
        self.penalty = penalty
        self._phase2_version = 0  # penalty version the engines were built under
        self._reconverge_at: Optional[float] = None
        self._oracle = None  # ground truth of the reconvergence fallback

    # ------------------------------------------------------------------

    def phase1_for(self, initiator: int, trigger_neighbor: int) -> Phase1Result:
        """The (cached) phase-1 result of ``initiator`` (§III-A: run once)."""
        result = self._phase1_cache.get(initiator)
        if result is None:
            with obs.span("rtr.phase1", initiator=initiator):
                if self.config.collector == "exhaustive":
                    from .exhaustive import run_exhaustive_phase1

                    result = run_exhaustive_phase1(
                        self.topo, self.view, initiator, trigger_neighbor, self.engine
                    )
                else:
                    result = self._run_phase1_with_retries(
                        initiator, trigger_neighbor
                    )
            obs.inc("rtr.phase1.walks")
            obs.inc("rtr.phase1.hops", result.hops)
            if not result.complete:
                obs.inc("rtr.phase1.incomplete")
            self._phase1_cache[initiator] = result
        return result

    def _run_phase1_with_retries(
        self, initiator: int, trigger_neighbor: int
    ) -> Phase1Result:
        """Phase 1, retried with exponential backoff under injected loss.

        All attempts share one accounting so the walk's duration, hop
        count, and header timeline are cumulative over retransmissions —
        a retried walk genuinely costs the network that much.
        """
        strict = self.chaos is None
        accounting = RecoveryAccounting()
        attempts = 1 if strict else self.config.max_phase1_retries + 1
        result: Optional[Phase1Result] = None
        for attempt in range(attempts):
            if attempt:
                accounting.count_retry()
                accounting.advance_clock(
                    self.config.retry_backoff_s * (2 ** (attempt - 1))
                )
            result = run_phase1(
                self.topo,
                self.view,
                initiator,
                trigger_neighbor,
                self.engine,
                accounting=accounting,
                use_constraints=self.config.use_constraints,
                clockwise=self.config.clockwise,
                strict=strict,
            )
            if result.complete:
                break
        assert result is not None
        result.hops = accounting.hops_traveled
        result.duration = accounting.clock
        result.accounting = accounting
        result.retries = accounting.retransmissions
        return result

    def phase2_for(self, initiator: int, trigger_neighbor: int) -> Phase2Engine:
        """The (cached) phase-2 engine of ``initiator``."""
        penalty = self.penalty
        if penalty is not None and penalty.version != self._phase2_version:
            self._phase2_cache.clear()
            self._phase2_version = penalty.version
        engine = self._phase2_cache.get(initiator)
        if engine is None:
            phase1 = self.phase1_for(initiator, trigger_neighbor)
            obs.inc("rtr.phase2.engines")
            engine = Phase2Engine(
                self.topo,
                initiator,
                phase1,
                use_incremental=self.config.use_incremental,
                cache=self.sp_cache,
                penalty=penalty,
            )
            self._phase2_cache[initiator] = engine
        return engine

    # ------------------------------------------------------------------

    def recover(
        self,
        initiator: int,
        destination: int,
        trigger_neighbor: Optional[int] = None,
    ) -> RecoveryResult:
        """Run one full recovery test case and return its accounting.

        ``trigger_neighbor`` defaults to the initiator's pre-failure default
        next hop toward ``destination`` — which must be unreachable,
        otherwise RTR would never have been invoked.
        """
        return run_plan(
            self.engine, self.plan_recovery(initiator, destination, trigger_neighbor)
        )

    def plan_recovery(
        self,
        initiator: int,
        destination: int,
        trigger_neighbor: Optional[int] = None,
    ) -> WalkPlan:
        """Compile one recovery test case into its first :class:`WalkPlan`.

        Phase 1 (cached per initiator), the phase-2 route computation, and
        the §IV accounting seed all happen here; the returned plan carries
        either the finished result or the first delivery walk, whose
        ``finish`` climbs the rest of the ladder (:meth:`_delivery_plan`).
        """
        trigger_neighbor, immediate = self._check_case(
            initiator, destination, trigger_neighbor
        )
        if immediate is not None:
            return WalkPlan(immediate=immediate)

        phase1 = self.phase1_for(initiator, trigger_neighbor)
        phase2 = self.phase2_for(initiator, trigger_neighbor)
        accounting = self._seed_case_accounting(phase1)

        if not phase1.complete:
            return WalkPlan(
                immediate=self._incomplete_result(
                    initiator, destination, phase1, accounting
                )
            )
        return self._delivery_plan(phase2, destination, accounting)

    def _delivery_plan(
        self,
        phase2: Phase2Engine,
        destination: int,
        accounting: RecoveryAccounting,
        resends: int = 0,
        reinvocations: int = 0,
    ) -> WalkPlan:
        """One phase-2 delivery attempt; its ``finish`` is the §III-D ladder.

        A *lost* packet (injected loss) is resent along the same route
        after a backoff (``max_phase2_resends``).  A packet discarded at a
        failure phase 1 missed teaches the initiator that link, and the
        route recomputed with the grown ``E1`` is the next plan
        (``max_phase2_reinvocations``, each one more on-demand SP
        calculation).  Anything else folds into the case result.
        """
        with obs.span("rtr.phase2", destination=destination):
            route, header, packet = compile_phase2_delivery(phase2, destination)
        if route is None:
            return WalkPlan(
                immediate=self._finish_phase2(
                    phase2, destination, accounting, no_route_result(phase2)
                )
            )

        hops_before = accounting.hops_traveled
        config = self.config

        def finish(route_outcome):
            outcome = phase2_result_from_outcome(
                route, header, hops_before, accounting, route_outcome
            )
            if outcome.lost:
                if resends < config.max_phase2_resends:
                    accounting.count_retry()
                    accounting.advance_clock(config.retry_backoff_s * (2**resends))
                    return self._delivery_plan(
                        phase2, destination, accounting, resends + 1, reinvocations
                    )
            elif not outcome.delivered:
                learned = _missed_link(outcome)
                if (
                    reinvocations < config.max_phase2_reinvocations
                    and learned is not None
                    and phase2.learn_failed_link(learned)
                ):
                    accounting.count_retry()
                    accounting.count_sp(1)
                    return self._delivery_plan(
                        phase2, destination, accounting, resends, reinvocations + 1
                    )
            return self._finish_phase2(phase2, destination, accounting, outcome)

        return WalkPlan(
            spec=SourceRouteSpec(route=list(route.nodes)),
            packet=packet,
            accounting=accounting,
            finish=finish,
        )

    def _check_case(
        self,
        initiator: int,
        destination: int,
        trigger_neighbor: Optional[int],
    ):
        """Validate one test case; resolve the trigger neighbor.

        Returns ``(trigger_neighbor, immediate_result_or_None)``.
        """
        if not self.scenario.is_node_live(initiator):
            raise SimulationError(f"recovery initiator {initiator} has failed")
        if trigger_neighbor is None:
            trigger_neighbor = self.routing.next_hop(initiator, destination)
            if trigger_neighbor is None:
                raise SimulationError(
                    f"{initiator} has no pre-failure route toward {destination}"
                )
        if self.view.is_neighbor_reachable(initiator, trigger_neighbor):
            if self.chaos is not None and not self._truth_view.is_neighbor_reachable(
                initiator, trigger_neighbor
            ):
                # The adjacency really failed but this router's detection
                # missed it (or hasn't fired yet): it keeps black-holing
                # traffic into the dead next hop until IGP convergence
                # repairs its table.
                return trigger_neighbor, self._fallback_result(
                    initiator,
                    destination,
                    RecoveryAccounting(),
                    phase1_duration=0.0,
                    phase1_hops=0,
                )
            raise SimulationError(
                f"default next hop {trigger_neighbor} of {initiator} is still "
                f"reachable; RTR is only invoked on failure (§II-B)"
            )
        return trigger_neighbor, None

    @staticmethod
    def _seed_case_accounting(phase1: Phase1Result) -> RecoveryAccounting:
        """Per-test-case accounting (§IV): the walk is attributed to every
        test case of this initiator, and each case counts one SP
        calculation regardless of tree caching."""
        accounting = phase1.accounting.copy()
        accounting.count_sp(1)
        return accounting

    def _incomplete_result(
        self,
        initiator: int,
        destination: int,
        phase1: Phase1Result,
        accounting: RecoveryAccounting,
    ) -> RecoveryResult:
        """Every retransmission died; the initiator has no failure
        information and refuses to guess a route (§II-C early discard), or
        hands off to reconvergence when allowed."""
        if self.config.fallback_to_reconvergence:
            return self._fallback_result(
                initiator,
                destination,
                accounting,
                phase1_duration=phase1.duration,
                phase1_hops=phase1.hops,
            )
        return RecoveryResult(
            approach=APPROACH_NAME,
            delivered=False,
            path=None,
            accounting=accounting,
            phase1_duration=phase1.duration,
            phase1_hops=phase1.hops,
            drop_hops=0,
            drop_packet_bytes=DEFAULT_PAYLOAD_BYTES
            + _phase1_final_header_bytes(phase1),
            retries=accounting.retransmissions,
        )

    def _finish_phase2(
        self,
        phase2: Phase2Engine,
        destination: int,
        accounting: RecoveryAccounting,
        outcome: Phase2Result,
    ) -> RecoveryResult:
        """Fold the last phase-2 outcome into the final per-case result.

        Wasted transmission (§IV-D): ``h`` is the hops from the recovery
        initiator to the node discarding the packet.  The phase-1 walk is
        not waste — it is the (separately accounted) transmission overhead
        that produces the failure information — so RTR wastes hops only
        when phase 2 computed a route that turned out to contain a missed
        failure.  When no route exists, packets die at the initiator
        itself (h = 0), which is exactly the early discard of §II-C.
        """
        initiator, phase1 = phase2.initiator, phase2.phase1
        obs.inc("rtr.phase2.attempts")
        if outcome.delivered:
            obs.inc("rtr.phase2.delivered")
            drop_hops = 0
            drop_bytes = 0
        elif outcome.route is None:
            drop_hops = 0
            drop_bytes = DEFAULT_PAYLOAD_BYTES + _phase1_final_header_bytes(phase1)
        else:
            # The route contained a failure phase 1 missed (§III-D).
            drop_hops = outcome.hops_traveled
            drop_bytes = DEFAULT_PAYLOAD_BYTES + outcome.route_header_bytes

        # Fall back only when RTR's own machinery failed (loss the resends
        # could not beat, or a missed failure the re-invocations could not
        # learn around).  ``route is None`` is the paper's early discard —
        # the destination is unreachable in ``G - E1`` and hence in
        # ``G - E2``, so waiting out reconvergence could not deliver either.
        if (
            not outcome.delivered
            and outcome.route is not None
            and self.config.fallback_to_reconvergence
        ):
            return self._fallback_result(
                initiator,
                destination,
                accounting,
                phase1_duration=phase1.duration,
                phase1_hops=phase1.hops,
                drop_hops=drop_hops,
                drop_bytes=drop_bytes,
            )

        return RecoveryResult(
            approach=APPROACH_NAME,
            delivered=outcome.delivered,
            path=outcome.route if outcome.delivered else None,
            accounting=accounting,
            phase1_duration=phase1.duration,
            phase1_hops=phase1.hops,
            drop_hops=drop_hops,
            drop_packet_bytes=drop_bytes,
            retries=accounting.retransmissions,
        )

    def _fallback_result(
        self,
        initiator: int,
        destination: int,
        accounting: RecoveryAccounting,
        phase1_duration: float,
        phase1_hops: int,
        drop_hops: int = 0,
        drop_bytes: int = 0,
    ) -> RecoveryResult:
        """The bottom rung: traffic waits out OSPF/IGP reconvergence.

        After convergence the routing tables are correct again, so
        delivery succeeds exactly when the destination is reachable in
        ``G - E2`` — along the true post-failure shortest path, but only
        after convergence-timescale delay.
        """
        from ..schemes.oracle import Oracle

        obs.inc("rtr.fallbacks")
        log.warning(
            "RTR ladder exhausted for case %s -> %s on scenario %s: "
            "falling back to OSPF reconvergence",
            initiator,
            destination,
            getattr(self.scenario, "name", self.scenario),
        )
        wait = self._reconvergence_time()
        if wait > accounting.clock:
            accounting.advance_clock(wait - accounting.clock)
        if self._oracle is None:
            self._oracle = Oracle(self.topo, self.scenario, cache=self.sp_cache)
        path = self._oracle.recovery_path(initiator, destination)
        delivered = path is not None
        return RecoveryResult(
            approach=APPROACH_NAME,
            delivered=delivered,
            path=path,
            accounting=accounting,
            phase1_duration=phase1_duration,
            phase1_hops=phase1_hops,
            drop_hops=0 if delivered else drop_hops,
            drop_packet_bytes=0 if delivered else drop_bytes,
            fallback=True,
            retries=accounting.retransmissions,
        )

    def _reconvergence_time(self) -> float:
        """When the IGP has fully reconverged on this scenario (cached)."""
        if self._reconverge_at is None:
            protocol = LinkStateProtocol(self.topo)
            report = protocol.apply_failure(
                set(self.scenario.failed_nodes), set(self.scenario.failed_links)
            )
            self._reconverge_at = report.network_converged_at
        return self._reconverge_at

    def recover_flow(self, source: int, destination: int) -> RecoveryResult:
        """Recover the failed default routing path ``source -> destination``.

        Walks the pre-failure path to the node that detects the failure (the
        recovery initiator, §II-B) and runs recovery there.
        """
        initiator, trigger = self.find_initiator(source, destination)
        return self.recover(initiator, destination, trigger)

    def find_initiator(self, source: int, destination: int) -> tuple:
        """``(initiator, unreachable_next_hop)`` of a failed default path
        (:func:`repro.failures.find_initiator`)."""
        return find_initiator(self.view, self.routing, source, destination)


def _missed_link(outcome: Phase2Result) -> Optional[Link]:
    """The failed link a phase-2 drop reveals (drop node -> next route hop)."""
    if outcome.route is None or outcome.drop_node is None:
        return None
    nodes = list(outcome.route.nodes)
    try:
        index = nodes.index(outcome.drop_node)
    except ValueError:
        return None
    if index + 1 >= len(nodes):
        return None
    return Link.of(nodes[index], nodes[index + 1])


def _phase1_final_header_bytes(phase1: Phase1Result) -> int:
    """Recovery header size at the end of the phase-1 walk."""
    if phase1.accounting.hops_traveled:
        return phase1.accounting.final_header_bytes()
    # Isolated initiator: the packet never left, only fixed fields existed.
    from ..simulator import FIXED_RTR_HEADER_BYTES

    return FIXED_RTR_HEADER_BYTES
