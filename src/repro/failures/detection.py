"""Local failure detection.

§II-A: *"A router only knows whether its neighbors are reachable, but
cannot differentiate between a node failure and a link failure."*

:class:`LocalView` is the only failure interface the protocol
implementations (RTR, FCP, MRC) are allowed to touch — they never read the
ground-truth :class:`~repro.failures.model.FailureScenario` directly, which
keeps the information asymmetry of the paper honest.  A neighbor ``v`` of
``u`` is *unreachable* when ``v`` failed **or** the link ``u-v`` failed;
``u`` cannot tell which.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import UnknownLinkError, UnknownNodeError
from ..topology import Link
from .model import FailureScenario


class LocalView:
    """Per-router neighbor reachability derived from the ground truth."""

    def __init__(self, scenario: FailureScenario) -> None:
        self.scenario = scenario
        self.topo = scenario.topo
        self._unreachable: Dict[int, List[int]] = {}

    def is_neighbor_reachable(self, node: int, neighbor: int) -> bool:
        """Whether router ``node`` can currently reach its ``neighbor``.

        Raises :class:`UnknownNodeError` when either id is not in the
        topology, and :class:`UnknownLinkError` when both nodes exist but
        are not adjacent — the two mistakes need different fixes at the
        call site, so they get different exceptions.
        """
        # Hot path: a present (node, neighbor) pair proves both nodes exist
        # and are adjacent, and the scenario's failed links include every
        # link of a failed router — one interned-id probe answers it all.
        failed = self.scenario.exclusion()
        lid = failed.csr.pair_lid.get((node, neighbor))
        if lid is not None:
            return not failed.link_flags[lid]
        if not self.topo.has_node(node):
            raise UnknownNodeError(node)
        if not self.topo.has_node(neighbor):
            raise UnknownNodeError(neighbor)
        raise UnknownLinkError(Link.of(node, neighbor))

    def unreachable_neighbors(self, node: int) -> List[int]:
        """Neighbors ``node`` has locally detected as unreachable (cached)."""
        cached = self._unreachable.get(node)
        if cached is None:
            cached = [
                nb
                for nb in self.topo.neighbors(node)
                if not self.is_neighbor_reachable(node, nb)
            ]
            self._unreachable[node] = cached
        return cached

    def reachable_neighbors(self, node: int) -> List[int]:
        """Neighbors ``node`` can still forward to."""
        unreachable = set(self.unreachable_neighbors(node))
        return [nb for nb in self.topo.neighbors(node) if nb not in unreachable]

    def locally_failed_links(self, node: int) -> List[Link]:
        """The links ``node`` locally considers failed.

        Note the subtlety the paper leans on: if neighbor ``v`` failed as a
        router, ``u`` reports link ``u-v`` as failed even though the fiber
        may be intact — ``u`` cannot tell the difference, and for routing
        purposes the link is unusable either way.
        """
        return [Link.of(node, nb) for nb in self.unreachable_neighbors(node)]

    def is_isolated(self, node: int) -> bool:
        """Whether ``node`` has no reachable neighbor left."""
        return not self.reachable_neighbors(node)
