"""Degraded local failure detection.

:class:`DegradedLocalView` wraps the idealized
:class:`~repro.failures.detection.LocalView` with the detection faults of
a :class:`~repro.chaos.plan.FaultPlan`, while staying behind the exact
same interface — protocol code cannot tell (and must not care) whether
its view is ideal or degraded:

* **missed detections** — a seeded fraction of failed directed
  adjacencies permanently read as reachable (false negatives, the
  hardest case of §III-D: phase 1 cannot collect what no router knows);
* **delayed detections** — another fraction reads reachable until the
  network-wide hop clock passes ``detection_delay_hops``;
* **secondary failures** — links flapped down mid-recovery by the shared
  :class:`~repro.chaos.runtime.ChaosRuntime` read unreachable from the
  instant they activate (both ends detect a flap immediately).

Because answers change as the runtime clock advances, this view never
caches neighbor lists.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..failures import FailureScenario, LocalView
from .plan import FaultPlan
from .runtime import ChaosRuntime


class DegradedLocalView(LocalView):
    """A :class:`LocalView` with seeded false-negative/late detection."""

    def __init__(
        self,
        scenario: FailureScenario,
        plan: FaultPlan,
        runtime: Optional[ChaosRuntime] = None,
    ) -> None:
        super().__init__(scenario)
        self.plan = plan
        self.runtime = runtime if runtime is not None else ChaosRuntime(plan, scenario)
        self._missed: Set[Tuple[int, int]] = set()
        self._delayed: Set[Tuple[int, int]] = set()
        if plan.detection_miss_rate > 0 or plan.detection_delay_rate > 0:
            rng = plan.rng("detection")
            truth = LocalView(scenario)
            for node in sorted(scenario.live_nodes()):
                for neighbor in sorted(truth.unreachable_neighbors(node)):
                    draw = rng.random()
                    if draw < plan.detection_miss_rate:
                        self._missed.add((node, neighbor))
                    elif draw < plan.detection_miss_rate + plan.detection_delay_rate:
                        self._delayed.add((node, neighbor))

    # ------------------------------------------------------------------

    def is_neighbor_reachable(self, node: int, neighbor: int) -> bool:
        """Reachability as *this* degraded router currently believes it."""
        truly_reachable = super().is_neighbor_reachable(node, neighbor)
        # super() proved the adjacency exists, so the interned id is present;
        # probe it instead of constructing a Link per call.
        if self.runtime.flapped_lids and self.runtime.is_link_id_flapped(
            self.topo.csr().pair_lid[(node, neighbor)]
        ):
            return False
        if truly_reachable:
            return True
        key = (node, neighbor)
        if key in self._missed:
            return True
        if key in self._delayed and self.runtime.hops < self.plan.detection_delay_hops:
            return True
        return False

    def unreachable_neighbors(self, node: int) -> List[int]:
        """Recomputed on every call — degraded answers drift with the clock."""
        return [
            nb
            for nb in self.topo.neighbors(node)
            if not self.is_neighbor_reachable(node, nb)
        ]

    def missed_adjacencies(self) -> Set[Tuple[int, int]]:
        """Directed adjacencies whose failure is never locally detected."""
        return set(self._missed)

    def delayed_adjacencies(self) -> Set[Tuple[int, int]]:
        """Directed adjacencies whose failure is detected late."""
        return set(self._delayed)
