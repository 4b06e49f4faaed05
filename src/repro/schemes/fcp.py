"""FCP (Failure-Carrying Packets) as a registered scheme."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..baselines import FCP
from .base import RecoveryScheme, SchemeInstance
from .registry import register_scheme

if TYPE_CHECKING:
    from ..failures import FailureScenario


@register_scheme
class FCPScheme(RecoveryScheme):
    """Failure-Carrying Packets: failed links ride in the packet header."""

    name = "FCP"

    def _instantiate(self, scenario: "FailureScenario", penalty: object) -> SchemeInstance:
        return SchemeInstance(
            self.name,
            FCP(
                self.topo,
                scenario,
                routing=self.routing,
                cache=self.sp_cache,
                fault_plan=self.fault_plan,
            ),
        )
