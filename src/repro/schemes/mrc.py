"""MRC (Multiple Routing Configurations) as a registered scheme."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..baselines import MRC, BackupConfiguration, generate_configurations
from .base import RecoveryScheme, SchemeInstance
from .registry import register_scheme

if TYPE_CHECKING:
    from ..failures import FailureScenario


@register_scheme
class MRCScheme(RecoveryScheme):
    """Multiple Routing Configurations: precomputed backup configurations."""

    name = "MRC"

    def __init__(self, mrc_seed: int = 0, **options: object) -> None:
        super().__init__(**options)
        self.mrc_seed = mrc_seed
        self._configs: Optional[List[BackupConfiguration]] = None

    def _configurations(self) -> List[BackupConfiguration]:
        # Lazy, not in _prepare(): configuration generation is the
        # expensive per-topology step, and shards that never instantiate
        # (empty case subsets) must not pay for it — serial and parallel
        # sweeps would otherwise diverge in obs spans and wall time.
        if self._configs is None:
            self._configs = generate_configurations(self.topo, seed=self.mrc_seed)
        return self._configs

    def _instantiate(self, scenario: "FailureScenario", penalty: object) -> SchemeInstance:
        return SchemeInstance(
            self.name,
            MRC(
                self.topo,
                scenario,
                configurations=self._configurations(),
                routing=self.routing,
                fault_plan=self.fault_plan,
            ),
        )
