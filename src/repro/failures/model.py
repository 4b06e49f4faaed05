"""Failure scenarios.

§II-A: the failure area is a continuous region; routers within it and links
across it all fail.  A :class:`FailureScenario` is the *ground truth* — the
set ``E2`` of Theorem 2 — while individual routers only ever see their own
neighbor reachability (:mod:`repro.failures.detection`).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Set

from ..errors import TopologyError
from ..geometry import FailureRegion
from ..topology import Link, Topology
from ..topology.csr import Exclusion, region_index


class FailureScenario:
    """Ground-truth failed nodes and links for one failure event."""

    def __init__(
        self,
        topo: Topology,
        failed_nodes: Iterable[int] = (),
        failed_links: Iterable[Link] = (),
        region: Optional[FailureRegion] = None,
    ) -> None:
        self.topo = topo
        self.region = region
        self._exclusion: Optional[Exclusion] = None
        self.failed_nodes: FrozenSet[int] = frozenset(failed_nodes)
        for node in self.failed_nodes:
            if not topo.has_node(node):
                raise TopologyError(f"failed node {node} not in topology")
        # E2 includes every link that cannot carry traffic: links cut by the
        # region plus all links incident to a failed router.
        links: Set[Link] = set(failed_links)
        for node in self.failed_nodes:
            links.update(topo.incident_links(node))
        self.failed_links: FrozenSet[Link] = frozenset(links)

    @classmethod
    def from_region(cls, topo: Topology, region: FailureRegion) -> "FailureScenario":
        """Apply a geometric failure area to a topology (§II-A semantics).

        Only the routers and links that meet the region's search boxes are
        tested (:func:`~repro.topology.csr.region_index`).  They come in ``topo.nodes()`` and
        link-index order, so the sets are built by the same insertion
        sequence as a scan of every router and link.
        """
        nodes, links = region_index(topo).query(region.search_boxes())
        failed_nodes = {n for n in nodes if region.contains(topo.position(n))}
        cut_links = {link for link in links if region.crosses(topo.segment(link))}
        return cls(topo, failed_nodes, cut_links, region=region)

    # ------------------------------------------------------------------

    def is_node_live(self, node: int) -> bool:
        """Whether ``node`` survived the event."""
        return node not in self.failed_nodes

    def is_link_live(self, link: Link) -> bool:
        """Whether ``link`` can still carry traffic."""
        return link not in self.failed_links

    def exclusion(self) -> Exclusion:
        """``E2`` prepared for the routing kernels (cached per CSR view).

        One object carries the :class:`~repro.routing.SPTCache` signature
        and the flag arrays of this scenario; a topology mutation installs
        a new CSR view and the next call prepares against it.
        """
        csr = self.topo.csr()
        cached = self._exclusion
        if cached is None or cached.csr is not csr:
            cached = Exclusion(csr, self.failed_nodes, self.failed_links)
            self._exclusion = cached
        return cached

    def live_nodes(self) -> Set[int]:
        """All surviving nodes."""
        return {n for n in self.topo.nodes() if n not in self.failed_nodes}

    def reachable(self, source: int, destination: int) -> bool:
        """Whether ``destination`` is reachable from ``source`` in G - E2."""
        if not (self.is_node_live(source) and self.is_node_live(destination)):
            return False
        component = self.topo.component_of(
            source,
            excluded_nodes=set(self.failed_nodes),
            excluded_links=set(self.failed_links),
        )
        return destination in component

    def __repr__(self) -> str:
        return (
            f"FailureScenario(nodes={len(self.failed_nodes)}, "
            f"links={len(self.failed_links)})"
        )

