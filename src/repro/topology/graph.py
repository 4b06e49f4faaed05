"""Embedded network topologies.

The paper models the network as an undirected graph of routers and links
(§II-A) where

* every node has plane coordinates known to all routers,
* link costs may be asymmetric (``c_ij != c_ji``),
* routing uses shortest paths on the link costs (the evaluation uses hop
  count, i.e. unit costs).

:class:`Topology` is the single source of truth for all of this, plus the
per-link *cross-link* sets that §III-C says routers precompute.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, TYPE_CHECKING

from ..errors import TopologyError, UnknownLinkError, UnknownNodeError
from ..geometry import Point, Segment

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from .csr import CSRView


class Link(NamedTuple):
    """Canonical identity of an undirected link.

    Endpoints are stored in sorted order so that ``Link.of(4, 11)`` and
    ``Link.of(11, 4)`` compare equal — the paper's ``e_{i,j}`` names an
    undirected link even though its two directed costs may differ.
    """

    u: int
    v: int

    @classmethod
    def of(cls, a: int, b: int) -> "Link":
        """The canonical link between nodes ``a`` and ``b``."""
        if a == b:
            raise TopologyError(f"self-loop link at node {a} is not allowed")
        return cls(a, b) if a < b else cls(b, a)

    def other(self, node: int) -> int:
        """The endpoint that is not ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise TopologyError(f"node {node} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"e{self.u},{self.v}"


class Topology:
    """An undirected graph embedded in the plane.

    Nodes are integer ids with coordinates; links are undirected with a cost
    per direction.  Links additionally get a dense integer *index* in
    insertion order — the 16-bit link id that RTR and FCP record in packet
    headers (§III-B), used by the byte-accounting in
    :mod:`repro.simulator.stats`.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._coords: Dict[int, Point] = {}
        self._adjacency: Dict[int, Dict[int, float]] = {}
        self._link_index: Dict[Link, int] = {}
        self._links: List[Link] = []
        #: Optional per-link capacity annotations (demand units/s), indexed
        #: like ``_links`` (``None`` = not provisioned).  Pure metadata for
        #: the traffic layer: capacities never affect routing, so mutating
        #: them does not bump the version or the CSR view.
        self._capacities: List[Optional[float]] = []
        #: Bumped on every structural mutation; keys the CSR view cache.
        self._version: int = 0
        self._csr: Optional["CSRView"] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, node: int, position: Point) -> None:
        """Add a node at ``position``; re-adding an existing node moves it."""
        if node in self._coords and self._adjacency[node]:
            # Moving a connected node would silently invalidate the embedding.
            raise TopologyError(f"node {node} already exists with incident links")
        if not (math.isfinite(position.x) and math.isfinite(position.y)):
            raise TopologyError(f"node {node} has a non-finite position: {position}")
        self._coords[node] = position
        self._adjacency.setdefault(node, {})
        self._version += 1

    def add_link(
        self, a: int, b: int, cost: float = 1.0, reverse_cost: Optional[float] = None
    ) -> Link:
        """Add an undirected link with per-direction costs.

        ``cost`` applies to direction ``a -> b``; ``reverse_cost`` defaults to
        ``cost`` (symmetric link).  Returns the canonical :class:`Link`.
        """
        for node in (a, b):
            if node not in self._coords:
                raise UnknownNodeError(node)
        for c in (cost, cost if reverse_cost is None else reverse_cost):
            if not (0 < c < math.inf):
                raise TopologyError(f"link costs must be positive and finite: {a}-{b}")
        link = Link.of(a, b)
        if link in self._link_index:
            raise TopologyError(f"link {link} already exists")
        self._adjacency[a][b] = float(cost)
        self._adjacency[b][a] = float(cost if reverse_cost is None else reverse_cost)
        self._link_index[link] = len(self._links)
        self._links.append(link)
        self._capacities.append(None)
        self._version += 1
        return link

    def remove_link(self, a: int, b: int) -> None:
        """Remove the link between ``a`` and ``b``.

        Link indices of the remaining links are preserved (the removed index
        is retired), matching how deployed routers keep stable link ids
        across topology changes.
        """
        link = Link.of(a, b)
        if link not in self._link_index:
            raise UnknownLinkError(link)
        del self._adjacency[a][b]
        del self._adjacency[b][a]
        index = self._link_index.pop(link)
        self._links[index] = None  # type: ignore[call-overload]
        self._capacities[index] = None
        self._version += 1

    # ------------------------------------------------------------------
    # Compact view
    # ------------------------------------------------------------------

    def csr(self) -> "CSRView":
        """The flat-array adjacency view of this snapshot (cached).

        Rebuilt lazily after any structural mutation; all routing kernels
        (Dijkstra, incremental SPT updates, connectivity) run on this view.
        """
        csr = self._csr
        if csr is None or csr.version != self._version:
            from .csr import CSRView

            csr = CSRView(self, self._version)
            self._csr = csr
        return csr

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._coords)

    @property
    def link_count(self) -> int:
        """Number of links."""
        return len(self._link_index)

    def nodes(self) -> Iterator[int]:
        """All node ids."""
        return iter(self._coords)

    def links(self) -> Iterator[Link]:
        """All links, in insertion (index) order."""
        return (link for link in self._links if link is not None)

    def has_node(self, node: int) -> bool:
        """Whether ``node`` exists."""
        return node in self._coords

    def has_link(self, a: int, b: int) -> bool:
        """Whether a link between ``a`` and ``b`` exists."""
        return a != b and Link.of(a, b) in self._link_index

    def neighbors(self, node: int) -> Iterator[int]:
        """Neighbors of ``node``."""
        if node not in self._adjacency:
            raise UnknownNodeError(node)
        return iter(self._adjacency[node])

    def degree(self, node: int) -> int:
        """Number of links incident to ``node``."""
        if node not in self._adjacency:
            raise UnknownNodeError(node)
        return len(self._adjacency[node])

    def position(self, node: int) -> Point:
        """Coordinates of ``node``."""
        try:
            return self._coords[node]
        except KeyError:
            raise UnknownNodeError(node) from None

    def cost(self, a: int, b: int) -> float:
        """Cost of the directed use ``a -> b`` of the link between them."""
        try:
            return self._adjacency[a][b]
        except KeyError:
            raise UnknownLinkError(Link.of(a, b)) from None

    def link_index(self, link: Link) -> int:
        """Dense integer index of ``link`` (the header link id)."""
        try:
            return self._link_index[link]
        except KeyError:
            raise UnknownLinkError(link) from None

    def link_at(self, index: int) -> Link:
        """Inverse of :meth:`link_index`."""
        if 0 <= index < len(self._links) and self._links[index] is not None:
            return self._links[index]
        raise UnknownLinkError(index)

    def segment(self, link: Link) -> Segment:
        """The embedded straight segment of ``link``."""
        return Segment(self.position(link.u), self.position(link.v))

    def incident_links(self, node: int) -> List[Link]:
        """Links incident to ``node``."""
        return [Link.of(node, nb) for nb in self.neighbors(node)]

    def euclidean_length(self, link: Link) -> float:
        """Length of the embedded link segment."""
        return self.segment(link).length()

    # ------------------------------------------------------------------
    # Capacity annotations (traffic layer)
    # ------------------------------------------------------------------

    def set_link_capacity(self, link: Link, capacity: float) -> None:
        """Annotate ``link`` with a carrying capacity (demand units/s)."""
        index = self.link_index(link)
        if capacity <= 0:
            raise TopologyError(f"link capacity must be positive: {link}")
        self._capacities[index] = float(capacity)

    def link_capacity(self, link: Link) -> Optional[float]:
        """Capacity of ``link``, or ``None`` when not provisioned."""
        return self._capacities[self.link_index(link)]

    def lid_capacities(self) -> List[Optional[float]]:
        """Capacity per link index (``None`` = not provisioned or retired).

        The topology's own list, not a copy: it follows every later
        :meth:`set_link_capacity`.  Read it, do not mutate or keep it.
        """
        return self._capacities

    # ------------------------------------------------------------------
    # Cross links (precomputed per §III-C)
    # ------------------------------------------------------------------

    def cross_links(self, link: Link) -> Set[Link]:
        """Links that geometrically cross ``link``, as a new set.

        Built from the link's row of :func:`~repro.topology.csr.cross_rows`
        (computed once per CSR view); editing the set leaves the relation
        alone.
        """
        from .csr import cross_rows

        links = self.csr().links
        return {links[lid] for lid in cross_rows(self)[self.link_index(link)]}

    def is_planar_embedding(self) -> bool:
        """Whether no two links cross in this embedding."""
        from .csr import cross_rows

        return not cross_rows(self).ids

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def component_of(
        self,
        start: int,
        excluded_nodes: Optional[Set[int]] = None,
        excluded_links: Optional[Set[Link]] = None,
    ) -> Set[int]:
        """Connected component containing ``start``, honouring exclusions."""
        if start not in self._adjacency:
            raise UnknownNodeError(start)
        if excluded_nodes and start in excluded_nodes:
            return set()
        csr = self.csr()
        # Excluded nodes start out seen, so the traversal never enters them.
        seen = csr.node_flags(excluded_nodes) if excluded_nodes else bytearray(csr.n)
        link_excl = csr.link_flags(excluded_links) if excluded_links else csr.no_links
        arcs, ids = csr.arcs, csr.ids
        root = csr.pos[start]
        seen[root] = 1
        stack = [root]
        members = {start}
        while stack:
            for v, l, _, _ in arcs[stack.pop()]:
                if seen[v] or link_excl[l]:
                    continue
                seen[v] = 1
                members.add(ids[v])
                stack.append(v)
        return members

    def is_connected(self) -> bool:
        """Whether the whole topology is one connected component."""
        if self.node_count == 0:
            return True
        first = next(iter(self._coords))
        return len(self.component_of(first)) == self.node_count

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Topology":
        """A deep, independent copy."""
        clone = Topology(name or self.name)
        for node, pos in self._coords.items():
            clone._coords[node] = pos
            clone._adjacency[node] = {}
        for link in self.links():
            clone._adjacency[link.u][link.v] = self._adjacency[link.u][link.v]
            clone._adjacency[link.v][link.u] = self._adjacency[link.v][link.u]
            clone._link_index[link] = len(clone._links)
            clone._links.append(link)
            clone._capacities.append(self._capacities[self._link_index[link]])
        return clone

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, nodes={self.node_count}, "
            f"links={self.link_count})"
        )
