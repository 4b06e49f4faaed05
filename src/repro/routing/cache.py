"""Scenario-scoped shortest-path-tree cache.

One failure scenario triggers the *same* ``G - E`` tree computation from
many call sites: the oracle classifies every (initiator, destination)
case against ``G - E2``, FCP recomputes from the same node with the same
carried failure set for every destination, and RTR phase 2 starts from
the initiator's pre-failure SPT — which is identical across *all*
scenarios of a sweep.  An :class:`SPTCache` keys full trees by
``(topology identity, topology version, root, orientation, exclusion
signature)`` so each distinct tree is computed once per process instead
of once per flow.

Exclusion signatures are compact integer bitmasks over the CSR view's
dense node indices and interned link ids — two exclusion sets collide on
a key iff they exclude exactly the same elements of this topology.  A
query names its exclusion as node/link sets or as an already prepared
:class:`~repro.topology.csr.Exclusion` (``exclusion=``, which then wins);
sets are prepared at the entry, so both forms share one key and one path,
and a prepared probe is a tuple build plus a dict lookup.

Correctness: a full tree answers every point query the early-terminating
Dijkstra would (same distances, same parent chains — parents of settled
nodes are frozen, and every node on a root→target chain settles before
the target), so serving cached full trees is result-identical, not just
approximately equal.  The §IV ``sp_computations`` accounting is a
*recorded* charge, counted by the protocols themselves; caching the
underlying tree never changes reported metrics.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple

from .. import obs
from ..errors import NoPathError
from ..topology import Link, Topology
from ..topology.csr import Exclusion
from .dijkstra import _dijkstra_csr
from .paths import Path
from .spt import ShortestPathTree

#: Default LRU capacity.  A tree is its two dense per-node sequences:
#: about 2.5 KB at the largest catalog AS (115 nodes), so a full cache of
#: catalog trees holds a few megabytes; numpy trees take 12 bytes a node
#: (240 KB at 20k nodes).  ``paper_tables`` evicts at this size (13,857
#: trees, traced at seed 0), yet a census found no cache size buying back
#: more than 406 of its trees (EXPERIMENTS.md): most are used once.  A
#: 2-scenario ``scale:50000`` traffic run takes 144 misses and 0 evictions.
DEFAULT_MAX_ENTRIES = 1024


class SPTCache:
    """LRU cache of full shortest-path trees, shared across call sites.

    Returned trees are shared objects — callers must treat them, and the
    dicts ``.dist`` / ``.parent`` build, as immutable.  ``max_entries``
    must be at least 1 (``ValueError``); evictions are counted as
    ``spt_cache.evictions``.
    """

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_entries")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # key -> (topo, tree); the topology reference pins the id() used
        # in the key so it cannot be recycled while the entry lives.
        self._entries: "OrderedDict[tuple, Tuple[Topology, ShortestPathTree]]" = (
            OrderedDict()
        )

    def _tree(
        self,
        topo: Topology,
        root: int,
        toward_root: bool,
        excluded_nodes: Optional[Set[int]],
        excluded_links: Optional[Set[Link]],
        exclusion: Optional[Exclusion],
    ) -> ShortestPathTree:
        csr = topo.csr()
        if exclusion is None:
            if excluded_nodes or excluded_links:
                exclusion = Exclusion(csr, excluded_nodes or (), excluded_links or ())
        elif exclusion.csr is not csr:
            # Prepared for another view (the topology mutated): translate again.
            exclusion = Exclusion(csr, exclusion.nodes, exclusion.links)
        node_mask = exclusion.node_mask if exclusion is not None else 0
        link_mask = exclusion.link_mask if exclusion is not None else 0
        key = (id(topo), csr.version, toward_root, root, node_mask, link_mask)
        entry = self._entries.get(key)
        if entry is not None:
            if entry[0] is topo:
                self._entries.move_to_end(key)
                self.hits += 1
                obs.inc("spt_cache.hits")
                return entry[1]
            # Signature collision: the bitmask key matched but the pinned
            # topology is a different object (an ``id()`` recycled after
            # the original graph died while this entry outlived it, or a
            # forged entry).  Serving the stored tree would answer queries
            # about the wrong graph — count a miss, drop the stale entry,
            # and recompute.
            del self._entries[key]
            obs.inc("spt_cache.collisions")
        self.misses += 1
        obs.inc("spt_cache.misses")
        node_excl = exclusion.node_flags if node_mask else None
        link_excl = exclusion.link_flags if link_mask else None
        tree = _dijkstra_csr(topo, root, toward_root, node_excl, link_excl)
        self._entries[key] = (topo, tree)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            # Sustained growth on a large sweep means the pool is thrashing.
            obs.inc("spt_cache.evictions")
        return tree

    # ------------------------------------------------------------------
    # Public queries — mirror the :mod:`repro.routing.dijkstra` wrappers
    # ------------------------------------------------------------------

    def forward_tree(
        self,
        topo: Topology,
        source: int,
        excluded_nodes: Optional[Set[int]] = None,
        excluded_links: Optional[Set[Link]] = None,
        exclusion: Optional[Exclusion] = None,
    ) -> ShortestPathTree:
        """Cached equivalent of :func:`~repro.routing.shortest_path_tree`."""
        return self._tree(
            topo, source, False, excluded_nodes, excluded_links, exclusion
        )

    def reverse_tree(
        self,
        topo: Topology,
        destination: int,
        excluded_nodes: Optional[Set[int]] = None,
        excluded_links: Optional[Set[Link]] = None,
        exclusion: Optional[Exclusion] = None,
    ) -> ShortestPathTree:
        """Cached equivalent of :func:`~repro.routing.reverse_shortest_path_tree`."""
        return self._tree(
            topo, destination, True, excluded_nodes, excluded_links, exclusion
        )

    def shortest_path(
        self,
        topo: Topology,
        source: int,
        destination: int,
        excluded_nodes: Optional[Set[int]] = None,
        excluded_links: Optional[Set[Link]] = None,
        exclusion: Optional[Exclusion] = None,
    ) -> Path:
        """Cached equivalent of :func:`~repro.routing.shortest_path`."""
        if source == destination:
            if exclusion is not None:
                excluded_nodes = exclusion.nodes
            if excluded_nodes and source in excluded_nodes:
                raise NoPathError(source, destination)
            return Path((source,), 0.0)
        tree = self.forward_tree(
            topo, source, excluded_nodes, excluded_links, exclusion
        )
        if not tree.reaches(destination):
            raise NoPathError(source, destination)
        return tree.path_from(destination)

    def shortest_path_or_none(
        self,
        topo: Topology,
        source: int,
        destination: int,
        excluded_nodes: Optional[Set[int]] = None,
        excluded_links: Optional[Set[Link]] = None,
        exclusion: Optional[Exclusion] = None,
    ) -> Optional[Path]:
        """Cached equivalent of :func:`~repro.routing.shortest_path_or_none`."""
        try:
            return self.shortest_path(
                topo, source, destination, excluded_nodes, excluded_links, exclusion
            )
        except NoPathError:
            return None

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction/size counters for observability and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
        }

    def hit_rate(self) -> float:
        """Fraction of probes served from the cache (0.0 before any probe)."""
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"SPTCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
