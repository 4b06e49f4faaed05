"""Compact flat-array (CSR) view of a :class:`Topology`.

Every paper experiment funnels through Dijkstra on ``G - failed``; the
dict-of-dicts adjacency and per-edge :class:`~repro.topology.graph.Link`
construction dominate that hot path.  A :class:`CSRView` interns nodes and
links to small dense integers once per topology version and exposes the
adjacency as parallel arrays (and, for the pure-Python kernels, as one
row of arc tuples per node), so the routing kernels run on integer
indices and per-call exclusion *flag arrays* instead of frozenset probes:

* nodes are interned in **sorted id order**, which makes comparisons of
  dense indices equivalent to comparisons of the original router ids —
  the deterministic smaller-parent-id tie-break survives the translation
  unchanged;
* links reuse the topology's dense insertion-order index (the 16-bit
  header link id of §III-B), so exclusion signatures computed here agree
  with the ids recorded in packet headers;
* per-arc arrays keep the **same neighbor order** as the dict adjacency,
  so relaxation order — and therefore every tolerance-window float
  outcome — is identical to the reference implementation.

The view is immutable and cached on the topology; any mutation bumps the
topology version and invalidates it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Tuple, TYPE_CHECKING

from ..geometry import CrossRows, SpatialGrid, compute_cross_links

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import Link, Topology


class CSRView:
    """Flat-array adjacency of one topology snapshot.

    Attributes
    ----------
    ids:
        Dense node index -> original node id, in sorted id order.
    pos:
        Original node id -> dense node index (inverse of ``ids``).
    indptr:
        ``indptr[u] : indptr[u + 1]`` is the arc slice of dense node ``u``.
    nbr:
        Arc -> dense index of the neighbor endpoint.
    wfwd:
        Arc ``u -> v`` -> directed cost ``cost(u, v)``.
    wrev:
        Arc ``u -> v`` -> directed cost ``cost(v, u)`` (the cost of
        *entering* ``u`` from ``v``; reverse trees relax with this).
    lid:
        Arc -> interned link id (the topology's dense header link index).
    pair_lid:
        ``(u, v)`` node-id pair (both directions) -> interned link id.
    links:
        Interned link id -> the topology's own ``Link`` (``None`` once
        retired); ``links[pair_lid[(u, v)]]`` is ``Link.of(u, v)``, unbuilt.
    unit:
        Whether every directed cost is exactly 1.0 (hop-count routing):
        shortest-path trees are then level-order BFS trees.
    arcs:
        Dense node ``u`` -> tuple of its arcs as ``(nbr, lid, wfwd, wrev)``
        tuples, in arc order (built on first read): the row every
        pure-Python kernel loops over.
    no_links:
        All-zero link flags (``lid_size`` bytes), what a kernel indexes when
        no link is excluded.
    """

    __slots__ = (
        "version",
        "ids",
        "pos",
        "indptr",
        "nbr",
        "wfwd",
        "wrev",
        "lid",
        "pair_lid",
        "links",
        "n",
        "unit",
        "lid_size",
        "no_links",
        "_arcs",
        "np_cache",
        "sweep_cache",
        "grid_cache",
        "cross_cache",
    )

    def __init__(self, topo: "Topology", version: int) -> None:
        self.version = version
        ids: List[int] = sorted(topo._coords)
        pos: Dict[int, int] = {node: i for i, node in enumerate(ids)}
        link_index = topo._link_index
        pair_lid: Dict[Tuple[int, int], int] = {}
        for link, index in link_index.items():
            pair_lid[(link.u, link.v)] = index
            pair_lid[(link.v, link.u)] = index

        indptr: List[int] = [0] * (len(ids) + 1)
        nbr: List[int] = []
        wfwd: List[float] = []
        wrev: List[float] = []
        lid: List[int] = []
        adjacency = topo._adjacency
        for i, u in enumerate(ids):
            # Keep the dict insertion order: relaxation order (and with it
            # every tolerance-window tie outcome) must match the reference
            # dict-based Dijkstra exactly.
            for v, cost_uv in adjacency[u].items():
                nbr.append(pos[v])
                wfwd.append(cost_uv)
                wrev.append(adjacency[v][u])
                lid.append(pair_lid[(u, v)])
            indptr[i + 1] = len(nbr)

        self.ids = ids
        self.pos = pos
        self.indptr = indptr
        self.nbr = nbr
        self.wfwd = wfwd
        self.wrev = wrev
        self.lid = lid
        self.pair_lid = pair_lid
        self.links = tuple(topo._links)
        self.n = len(ids)
        self.unit = wfwd.count(1.0) == len(wfwd) and wrev.count(1.0) == len(wrev)
        #: One past the largest interned link id (retired ids included, so
        #: flag arrays stay indexable by any id ever handed out).
        self.lid_size = len(topo._links)
        self.no_links = bytes(self.lid_size)
        self._arcs = None
        #: Lazily built :class:`~repro.topology.npcsr.NumpyCSR` mirror —
        #: populated by ``npcsr.numpy_view``.  ``None`` until first use.
        self.np_cache = None
        #: Lazily built :class:`~repro.core.sweep.SweepTable` (the rotation
        #: system of the right-hand rule) — populated by ``sweep_table``.
        self.sweep_cache = None
        #: Lazily built :class:`~repro.geometry.spatial.SpatialGrid` over
        #: node points and link segments — populated by :func:`region_index`.
        self.grid_cache = None
        #: Lazily built §III-C :class:`~repro.geometry.CrossRows` (link id
        #: -> ascending ids of the links across it), computed on
        #: ``grid_cache`` — populated by :func:`cross_rows`.
        self.cross_cache = None

    @property
    def arcs(self) -> Tuple[Tuple[Tuple[int, int, float, float], ...], ...]:
        arcs = self._arcs
        if arcs is None:
            indptr = self.indptr
            flat = list(zip(self.nbr, self.lid, self.wfwd, self.wrev))
            arcs = self._arcs = tuple(
                tuple(flat[indptr[u] : indptr[u + 1]]) for u in range(self.n)
            )
        return arcs

    # ------------------------------------------------------------------
    # Exclusion flags and signatures
    # ------------------------------------------------------------------

    def node_flags(self, nodes: Iterable[int]) -> bytearray:
        """Dense 0/1 exclusion array over node indices.

        Unknown node ids are ignored — a frozenset probe on them could
        never match either.
        """
        flags = bytearray(self.n)
        pos = self.pos
        for node in nodes:
            i = pos.get(node)
            if i is not None:
                flags[i] = 1
        return flags

    def link_flags(self, links: Iterable["Link"]) -> bytearray:
        """Dense 0/1 exclusion array over interned link ids."""
        flags = bytearray(self.lid_size)
        pair_lid = self.pair_lid
        for link in links:
            index = pair_lid.get((link[0], link[1]))
            if index is not None:
                flags[index] = 1
        return flags

    def node_mask(self, nodes: Iterable[int]) -> int:
        """Compact integer bitmask of node indices (cache signatures)."""
        mask = 0
        pos = self.pos
        for node in nodes:
            i = pos.get(node)
            if i is not None:
                mask |= 1 << i
        return mask

    def link_mask(self, links: Iterable["Link"]) -> int:
        """Compact integer bitmask of interned link ids (cache signatures)."""
        mask = 0
        pair_lid = self.pair_lid
        for link in links:
            index = pair_lid.get((link[0], link[1]))
            if index is not None:
                mask |= 1 << index
        return mask

    def link_id(self, a: int, b: int) -> int:
        """Interned id of the link between ``a`` and ``b`` (KeyError if none)."""
        return self.pair_lid[(a, b)]

    def __repr__(self) -> str:
        return f"CSRView(nodes={self.n}, arcs={len(self.nbr)}, v={self.version})"


def region_index(topo: "Topology") -> SpatialGrid:
    """The grid over ``topo``'s routers and links (built once per CSR view).

    Both of its users read it: failure areas
    (:meth:`~repro.failures.model.FailureScenario.from_region`) and the
    cross-link precompute (:func:`cross_rows`).
    """
    csr = topo.csr()
    grid = csr.grid_cache
    if grid is None:
        # A link's endpoints stand in for its ``Segment``: the grid only
        # flattens them into coordinates.
        coords = topo._coords
        grid = csr.grid_cache = SpatialGrid(
            list(coords.items()),
            [
                (link, (coords[link.u], coords[link.v]))
                for link in csr.links
                if link is not None
            ],
        )
    return grid


def cross_rows(topo: "Topology") -> CrossRows:
    """The §III-C crossing relation of ``topo`` by link id (once per CSR view).

    ``rows[lid]`` holds, ascending, the ids of the links that properly
    cross link ``lid``; a retired id gets an empty row.  Computed on
    :func:`region_index`, the grid failure areas query.
    """
    csr = topo.csr()
    rows = csr.cross_cache
    if rows is None:
        grid = region_index(topo)
        rows = compute_cross_links(grid=grid)
        if len(rows) < csr.lid_size:
            # Retired ids are not in the grid: move positions onto ids
            # (ascending with the positions, so rows stay sorted).
            lids = [csr.pair_lid[link] for link in grid.segment_keys]
            by_lid: List[List[int]] = [[] for _ in range(csr.lid_size)]
            for lid, row in zip(lids, rows):
                by_lid[lid] = [lids[j] for j in row]
            rows = CrossRows.from_rows(by_lid)
        csr.cross_cache = rows
    return rows


class Exclusion:
    """One ``G - E`` exclusion, translated once against one :class:`CSRView`.

    The bitmask signature (what :class:`~repro.routing.SPTCache` keys on)
    is computed up front; the 0/1 flag arrays the kernels index are built
    on first use and kept, so a cache hit never pays for them.  Valid only
    for the view it names: holders compare ``csr`` by identity.
    """

    def __init__(
        self, csr: CSRView, nodes: Iterable[int] = (), links: Iterable["Link"] = ()
    ) -> None:
        self.csr = csr
        self.nodes = nodes
        self.links = links
        self.node_mask = csr.node_mask(nodes)
        self.link_mask = csr.link_mask(links)

    @cached_property
    def node_flags(self) -> bytearray:
        """0/1 flags over dense node indices, 1 = excluded."""
        return self.csr.node_flags(self.nodes)

    @cached_property
    def link_flags(self) -> bytearray:
        """0/1 flags over interned link ids, 1 = excluded."""
        return self.csr.link_flags(self.links)
