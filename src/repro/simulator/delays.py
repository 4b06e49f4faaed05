"""Per-hop delay models.

§IV-B fixes the one-hop delay at 1.8 ms: 100 microseconds through a router
(99th-percentile single-hop delay on an OC-12 backbone, Papagiannaki et
al.) plus 1.7 ms propagation for an average 500 km link.
:class:`PaperDelayModel` reproduces exactly that.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..topology import Link, Topology

#: 100 microseconds through a router (§IV-B).
ROUTER_DELAY_S = 100e-6

#: 1.7 ms propagation on an average 500 km link (§IV-B).
PAPER_PROPAGATION_S = 1.7e-3


class DelayModel(ABC):
    """Delay of one hop over a given link."""

    @abstractmethod
    def hop_delay(self, topo: Topology, link: Link) -> float:
        """Seconds for one traversal of ``link`` (router + propagation)."""


class PaperDelayModel(DelayModel):
    """The fixed 1.8 ms/hop model of §IV-B."""

    def __init__(
        self,
        router_delay: float = ROUTER_DELAY_S,
        propagation: float = PAPER_PROPAGATION_S,
    ) -> None:
        self.router_delay = router_delay
        self.propagation = propagation

    def hop_delay(self, topo: Topology, link: Link) -> float:
        return self.router_delay + self.propagation


#: Shared default instance: the model every experiment uses unless told
#: otherwise, matching Fig. 7's 1.8 ms/hop.
DEFAULT_DELAY_MODEL = PaperDelayModel()
