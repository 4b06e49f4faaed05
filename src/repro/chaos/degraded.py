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
caches failed-link ids.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

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
        #: Directed adjacencies whose failure is never locally detected.
        self.missed: Set[Tuple[int, int]] = set()
        #: Directed adjacencies whose failure is detected late.
        self.delayed: Set[Tuple[int, int]] = set()
        if plan.detection_miss_rate > 0 or plan.detection_delay_rate > 0:
            rng = plan.rng("detection")
            truth = LocalView(scenario)
            for node in sorted(scenario.live_nodes()):
                for neighbor in sorted(truth.unreachable_neighbors(node)):
                    draw = rng.random()
                    if draw < plan.detection_miss_rate:
                        self.missed.add((node, neighbor))
                    elif draw < plan.detection_miss_rate + plan.detection_delay_rate:
                        self.delayed.add((node, neighbor))

    # ------------------------------------------------------------------

    def link_reachable(self, node: int, neighbor: int, lid: int) -> bool:
        """Reachability as *this* degraded router currently believes it."""
        runtime = self.runtime
        if runtime.flapped_lids and runtime.is_link_id_flapped(lid):
            return False
        if super().link_reachable(node, neighbor, lid):
            return True
        key = (node, neighbor)
        if key in self.missed:
            return True
        if key in self.delayed and runtime.hops < self.plan.detection_delay_hops:
            return True
        return False

    def failed_lids(self, node: int) -> Tuple[int, ...]:
        """Recomputed on every call — degraded answers drift with the clock.

        ``node``'s links probed by id, in adjacency order: all of them once
        a secondary failure has flapped a link, else only the truly failed
        ones, since a live link reads reachable until it flaps.
        """
        csr = self._csr
        if self.runtime.flapped_lids:
            candidates = [csr.lid[i] for i in self._arcs_of(node)]
        else:
            candidates = super().failed_lids(node)
        links = csr.links
        return tuple(
            lid
            for lid in candidates
            if not self.link_reachable(node, links[lid].other(node), lid)
        )
