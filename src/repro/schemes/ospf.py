"""OSPF reconvergence as a first-class baseline scheme.

The paper's §I framing — and its Fig. 2 motivation — is that plain IGP
reconvergence *does* eventually recover every recoverable pair, it just
takes the full convergence window to do it.  Modelling that as a scheme
makes "do nothing clever and wait" a row in every table: the packet
waits out :class:`~repro.routing.LinkStateProtocol`'s network
convergence time, then follows the post-convergence shortest path
(optimal by construction, so its stretch is 1.0 and its cost is pure
delay plus the traffic lost during the window).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..routing import LinkStateProtocol
from ..simulator import RecoveryAccounting, RecoveryResult, WalkPlan
from .base import RecoveryScheme, SchemeInstance
from .oracle import Oracle
from .registry import register_scheme

if TYPE_CHECKING:
    from ..failures import FailureScenario


class _OSPFProtocol:
    """One convergence window: wait for the IGP, then route optimally."""

    def __init__(self, oracle: Oracle, converged_at: float) -> None:
        self.oracle = oracle
        self.converged_at = converged_at

    def plan_recovery(
        self, initiator: int, destination: int, trigger_neighbor: int
    ) -> WalkPlan:
        """Walk-free scheme: the whole case resolves at compile time."""
        if initiator in self.oracle.scenario.failed_nodes:
            raise SimulationError(f"recovery initiator {initiator} has failed")
        accounting = RecoveryAccounting()
        # The packet (conceptually, its successors) waits out the window;
        # route computation happens in the control plane during that wait,
        # so no on-demand shortest-path computations are charged.
        accounting.advance_clock(self.converged_at)
        path = self.oracle.recovery_path(initiator, destination)
        return WalkPlan(
            immediate=RecoveryResult(
                approach=OSPFScheme.name,
                delivered=path is not None,
                path=path,
                accounting=accounting,
                # The pre-recovery outage window: traffic launched before
                # the IGP converges is lost, which is the paper's Fig. 2
                # motivation for reacting faster than reconvergence.
                phase1_duration=self.converged_at,
            )
        )


@register_scheme
class OSPFScheme(RecoveryScheme):
    """OSPF reconvergence: wait out the IGP window, then route optimally."""

    name = "OSPF"

    def _instantiate(self, scenario: "FailureScenario", penalty: object) -> SchemeInstance:
        report = LinkStateProtocol(self.topo).apply_failure(
            set(scenario.failed_nodes), set(scenario.failed_links)
        )
        oracle = Oracle(self.topo, scenario, cache=self.sp_cache)
        return SchemeInstance(
            self.name, _OSPFProtocol(oracle, report.network_converged_at)
        )
