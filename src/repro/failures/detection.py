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

from typing import Dict, List, Tuple

from ..errors import SimulationError, UnknownLinkError, UnknownNodeError
from ..topology import Link
from .model import FailureScenario


class LocalView:
    """Per-router neighbor reachability derived from the ground truth.

    The view reads the scenario's failed-link flags once, against the
    topology's CSR view at construction: link ids (``topo.csr().pair_lid``)
    it is asked about are that view's.
    """

    def __init__(self, scenario: FailureScenario) -> None:
        self.scenario = scenario
        self.topo = scenario.topo
        failed = scenario.exclusion()
        self._csr = failed.csr
        #: Because ``failed_links`` includes every link of a failed router,
        #: ``flags[lid]`` alone answers "can this adjacency carry traffic".
        self._failed = failed.link_flags
        self._failed_lids: Dict[int, Tuple[int, ...]] = {}
        #: Endpoints of failed links: any other node detects no failure.
        self._touched = {node for link in scenario.failed_links for node in link}

    def link_reachable(self, node: int, neighbor: int, lid: int) -> bool:
        """Whether ``node`` can reach ``neighbor`` over link ``lid``.

        The by-id probe every reachability question ends in: ``lid`` must
        be the id of the link ``node``-``neighbor`` (the caller holds it),
        which is not checked.
        """
        return not self._failed[lid]

    def link_id(self, node: int, neighbor: int) -> int:
        """Id of the link ``node``-``neighbor`` (``topo.csr().pair_lid``).

        Raises :class:`UnknownNodeError` when either id is not in the
        topology, and :class:`UnknownLinkError` when both nodes exist but
        are not adjacent — the two mistakes need different fixes at the
        call site, so they get different exceptions.
        """
        lid = self._csr.pair_lid.get((node, neighbor))
        if lid is not None:
            return lid
        if not self.topo.has_node(node):
            raise UnknownNodeError(node)
        if not self.topo.has_node(neighbor):
            raise UnknownNodeError(neighbor)
        raise UnknownLinkError(Link.of(node, neighbor))

    def is_neighbor_reachable(self, node: int, neighbor: int) -> bool:
        """Whether router ``node`` can currently reach its ``neighbor``.

        Raises as :meth:`link_id` does when the two are not adjacent.
        """
        return self.link_reachable(node, neighbor, self.link_id(node, neighbor))

    def failed_lids(self, node: int) -> Tuple[int, ...]:
        """Ids of the links ``node`` detects as failed, in adjacency order (cached).

        Phase 1 asks this at every hop; a node that is no endpoint of a
        failed link answers ``()`` at once.
        """
        if node not in self._touched:
            return ()
        cached = self._failed_lids.get(node)
        if cached is None:
            lids, failed = self._csr.lid, self._failed
            cached = self._failed_lids[node] = tuple(
                lids[i] for i in self._arcs_of(node) if failed[lids[i]]
            )
        return cached

    def unreachable_neighbors(self, node: int) -> List[int]:
        """Neighbors ``node`` has locally detected as unreachable, in adjacency order."""
        links = self._csr.links
        return [links[lid].other(node) for lid in self.failed_lids(node)]

    def _arcs_of(self, node: int) -> range:
        """The CSR arc indices of ``node``'s row."""
        csr = self._csr
        u = csr.pos.get(node)
        if u is None:
            raise UnknownNodeError(node)
        return range(csr.indptr[u], csr.indptr[u + 1])

    def locally_failed_links(self, node: int) -> List[Link]:
        """The links ``node`` locally considers failed.

        Note the subtlety the paper leans on: if neighbor ``v`` failed as a
        router, ``u`` reports link ``u-v`` as failed even though the fiber
        may be intact — ``u`` cannot tell the difference, and for routing
        purposes the link is unusable either way.
        """
        return [self._csr.links[lid] for lid in self.failed_lids(node)]


def find_initiator(
    view: LocalView, routing, source: int, destination: int
) -> Tuple[int, int]:
    """The recovery initiator of the default path ``source -> destination``.

    Walks the pre-failure path (``routing.path``) to the first node whose
    next hop ``view`` sees as unreachable — the router that invokes
    recovery (§II-B) — and returns ``(initiator, unreachable_next_hop)``.
    Raises :class:`SimulationError` when the source failed, when there is
    no pre-failure route, or when the default path did not fail (no
    scheme is invoked then).
    """
    if not view.scenario.is_node_live(source):
        raise SimulationError(f"source {source} has failed; nothing to recover")
    path = routing.path(source, destination)
    if path is None:
        raise SimulationError(f"no pre-failure route {source} -> {destination}")
    for node, nxt in path.hops():
        if not view.is_neighbor_reachable(node, nxt):
            return node, nxt
    raise SimulationError(f"default path {source} -> {destination} did not fail")
