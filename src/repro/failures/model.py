"""Failure scenarios.

§II-A: the failure area is a continuous region; routers within it and links
across it all fail.  A :class:`FailureScenario` is the *ground truth* — the
set ``E2`` of Theorem 2 — while individual routers only ever see their own
neighbor reachability (:mod:`repro.failures.detection`).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Set

from ..errors import TopologyError
from ..geometry import FailureRegion, SpatialGrid
from ..topology import Link, Topology
from ..topology.csr import Exclusion


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
        tested (:func:`region_index`).  They come in ``topo.nodes()`` and
        link-index order, so the sets are built by the same insertion
        sequence as a scan of every router and link.
        """
        nodes, links = region_index(topo).query(region.search_boxes())
        failed_nodes = {n for n in nodes if region.contains(topo.position(n))}
        cut_links = {link for link in links if region.crosses(topo.segment(link))}
        return cls(topo, failed_nodes, cut_links, region=region)

    @classmethod
    def single_link(cls, topo: Topology, link: Link) -> "FailureScenario":
        """The sporadic single-link-failure case of Theorem 3."""
        return cls(topo, failed_links=[link])

    @classmethod
    def from_nodes(cls, topo: Topology, nodes: Iterable[int]) -> "FailureScenario":
        """Router failures without a geometric region (e.g. power loss)."""
        return cls(topo, failed_nodes=nodes)

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

    def failed_link_flags(self) -> bytearray:
        """0/1 flags over interned link ids, 1 = failed (cached per CSR view).

        Because ``failed_links`` includes every link incident to a failed
        router, ``flags[lid]`` alone answers "can this adjacency carry
        traffic" — the hot probe of local failure detection.
        """
        return self.exclusion().link_flags

    def live_nodes(self) -> Set[int]:
        """All surviving nodes."""
        return {n for n in self.topo.nodes() if n not in self.failed_nodes}

    def cut_links_between_live_nodes(self) -> Set[Link]:
        """Failed links whose both endpoints are live.

        These are the failures that *two* live routers can each locally
        detect — the information RTR's first phase goes out to collect.
        """
        return {
            link
            for link in self.failed_links
            if link.u not in self.failed_nodes and link.v not in self.failed_nodes
        }

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

    def merged_with(self, other: "FailureScenario") -> "FailureScenario":
        """The union of two failure events (multiple failure areas, §III-E)."""
        if other.topo is not self.topo:
            raise TopologyError("cannot merge scenarios over different topologies")
        region = None
        if self.region is not None and other.region is not None:
            region = self.region.union(other.region)
        return FailureScenario(
            self.topo,
            self.failed_nodes | other.failed_nodes,
            self.failed_links | other.failed_links,
            region=region,
        )

    def __repr__(self) -> str:
        return (
            f"FailureScenario(nodes={len(self.failed_nodes)}, "
            f"links={len(self.failed_links)})"
        )


def region_index(topo: Topology) -> SpatialGrid:
    """The grid over ``topo``'s routers and links (built once per CSR view)."""
    csr = topo.csr()
    grid = csr.grid_cache
    if grid is None:
        grid = csr.grid_cache = SpatialGrid(
            [(node, topo.position(node)) for node in topo.nodes()],
            [(link, topo.segment(link)) for link in topo.links()],
        )
    return grid
