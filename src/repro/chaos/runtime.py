"""Shared per-scenario state of one chaos experiment.

One :class:`ChaosRuntime` binds a :class:`~repro.chaos.plan.FaultPlan` to
one failure scenario: it owns the network-wide hop clock that paces
secondary failures and delayed detections, the per-injector random
streams, and the links secondary failures have taken down.  The
degraded view and the chaos engine of one RTR instance share a single
runtime so all injectors observe one consistent timeline.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from .. import obs
from ..errors import ChaosError
from ..failures import FailureScenario
from ..topology import Link
from .plan import FaultPlan


class ChaosRuntime:
    """Mutable clock, activation state, and random streams of one experiment.

    Losses and truncations are counted as ``chaos.packets_lost`` and
    ``chaos.headers_corrupted`` (:mod:`repro.obs`).
    """

    def __init__(self, plan: FaultPlan, scenario: FailureScenario) -> None:
        self.plan = plan
        self.scenario = scenario
        #: Total recovery hops forwarded anywhere in the network.
        self.hops = 0
        #: Link ids of the secondary failures currently active (flapped down).
        self.flapped_lids: Set[int] = set()
        self._loss_rng = plan.rng("packet-loss")
        self._corruption_rng = plan.rng("header-corruption")
        self._pending: List[Tuple[int, Link]] = self._resolve_secondary(plan, scenario)

    @staticmethod
    def _resolve_secondary(
        plan: FaultPlan, scenario: FailureScenario
    ) -> List[Tuple[int, Link]]:
        """Bind each secondary-failure spec to a concrete live link."""
        topo = scenario.topo
        rng = plan.rng("secondary-failures")
        live_links = sorted(
            link
            for link in topo.links()
            if scenario.is_link_live(link)
            and scenario.is_node_live(link.u)
            and scenario.is_node_live(link.v)
        )
        chosen: Set[Link] = set()
        resolved: List[Tuple[int, Link]] = []
        for spec in plan.secondary_failures:
            if spec.link is not None:
                u, v = spec.link
                if not topo.has_link(u, v):
                    raise ChaosError(
                        f"secondary failure names missing link {u}-{v}"
                    )
                link = Link.of(u, v)
                if not scenario.is_link_live(link):
                    raise ChaosError(
                        f"secondary failure targets already-failed link {link}"
                    )
            else:
                candidates = [l for l in live_links if l not in chosen]
                if not candidates:
                    raise ChaosError(
                        "no live link left to assign to a secondary failure"
                    )
                link = candidates[rng.randrange(len(candidates))]
            chosen.add(link)
            resolved.append((spec.at_hop, link))
        resolved.sort(key=lambda pair: pair[0])
        return resolved

    # ------------------------------------------------------------------

    def on_hop(self) -> None:
        """Advance the network hop clock; activate due failures."""
        self.hops += 1
        while self._pending and self._pending[0][0] <= self.hops:
            _, link = self._pending.pop(0)
            obs.inc("chaos.secondary_activated")
            lid = self.scenario.topo.csr().pair_lid.get((link.u, link.v))
            if lid is not None:
                self.flapped_lids.add(lid)

    def is_link_id_flapped(self, lid: int) -> bool:
        """Whether link ``lid`` has been taken down by a secondary failure."""
        return lid in self.flapped_lids

    def sample_packet_loss(self) -> bool:
        """Draw one per-hop loss decision (counts the drop when taken)."""
        rate = self.plan.packet_loss_rate
        if rate <= 0.0:
            return False
        lost = self._loss_rng.random() < rate
        if lost:
            obs.inc("chaos.packets_lost")
        return lost

    def sample_header_corruption(self) -> bool:
        """Draw one per-hop header-truncation decision."""
        rate = self.plan.header_corruption_rate
        if rate <= 0.0:
            return False
        corrupted = self._corruption_rng.random() < rate
        if corrupted:
            obs.inc("chaos.headers_corrupted")
        return corrupted
