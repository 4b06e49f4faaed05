"""Compact flat-array (CSR) view of a :class:`Topology`.

Every paper experiment funnels through Dijkstra on ``G - failed``; the
dict-of-dicts adjacency and per-edge :class:`~repro.topology.graph.Link`
construction dominate that hot path.  A :class:`CSRView` interns nodes and
links to small dense integers once per topology version and exposes the
adjacency as parallel arrays, so the routing kernels run on integer
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
        "lid_size",
        "np_cache",
        "sweep_cache",
        "grid_cache",
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
        #: One past the largest interned link id (retired ids included, so
        #: flag arrays stay indexable by any id ever handed out).
        self.lid_size = len(topo._links)
        #: Lazily built :class:`~repro.topology.npcsr.NumpyCSR` mirror —
        #: populated by ``npcsr.numpy_view``.  ``None`` until first use.
        self.np_cache = None
        #: Lazily built :class:`~repro.core.sweep.SweepTable` (the rotation
        #: system of the right-hand rule) — populated by ``sweep_table``.
        self.sweep_cache = None
        #: Lazily built :class:`~repro.geometry.spatial.SpatialGrid` over
        #: node points and link segments — populated by ``region_index``.
        self.grid_cache = None

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
