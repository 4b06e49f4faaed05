"""The ground-truth oracle as a registered scheme.

Not a deployable protocol — the oracle sees the exact failure set — but
registering it makes the optimality reference runnable through the same
driver as everything else (handy for sanity sweeps and Theorem 2 spot
checks from the CLI).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..baselines import Oracle
from ..errors import SimulationError
from ..routing import SPTCache
from ..simulator import RecoveryAccounting, RecoveryResult, WalkPlan
from .base import RecoveryScheme, SchemeInstance
from .registry import register_scheme

if TYPE_CHECKING:
    from ..failures import FailureScenario


class _OracleProtocol:
    """Adapter giving :class:`~repro.baselines.Oracle` the protocol shape."""

    def __init__(self, oracle: Oracle) -> None:
        self.oracle = oracle

    def plan_recovery(
        self, initiator: int, destination: int, trigger_neighbor: int
    ) -> WalkPlan:
        """Walk-free scheme: the whole case resolves at compile time."""
        if initiator in self.oracle.scenario.failed_nodes:
            raise SimulationError(f"initiator {initiator} failed in this scenario")
        accounting = RecoveryAccounting()
        accounting.count_sp(1)
        path = self.oracle.recovery_path(initiator, destination)
        return WalkPlan(
            immediate=RecoveryResult(
                approach=OracleScheme.name,
                delivered=path is not None,
                path=path,
                accounting=accounting,
            )
        )


@register_scheme
class OracleScheme(RecoveryScheme):
    """Ground truth: optimal path in ``G - E2`` with the full failure set."""

    name = "Oracle"

    def _instantiate(self, scenario: "FailureScenario", penalty: object) -> SchemeInstance:
        cache: Optional[SPTCache] = self.sp_cache
        return SchemeInstance(
            self.name, _OracleProtocol(Oracle(self.topo, scenario, cache=cache))
        )
