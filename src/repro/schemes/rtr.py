"""RTR as a registered scheme (the paper's contribution)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core import RTR, RTRConfig
from .base import RecoveryScheme, SchemeInstance
from .registry import register_scheme

if TYPE_CHECKING:
    from ..failures import FailureScenario
    from ..te.penalty import LinkPenalty


@register_scheme
class RTRScheme(RecoveryScheme):
    """Reactive Two-phase Rerouting: failure-collecting walk + SPT reroute."""

    name = "RTR"

    def __init__(
        self, rtr_config: Optional[RTRConfig] = None, **options: object
    ) -> None:
        super().__init__(**options)
        self.rtr_config = rtr_config

    def _instantiate(
        self, scenario: "FailureScenario", penalty: Optional["LinkPenalty"]
    ) -> SchemeInstance:
        return SchemeInstance(
            self.name,
            RTR(
                self.topo,
                scenario,
                routing=self.routing,
                config=self.rtr_config,
                fault_plan=self.fault_plan,
                sp_cache=self.sp_cache,
                penalty=penalty,
            ),
        )
