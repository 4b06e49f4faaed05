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

import os
from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple

from .. import obs
from ..errors import NoPathError, RoutingError
from ..topology import Link, Topology
from ..topology.csr import Exclusion
from .dijkstra import _dijkstra_csr
from .paths import Path
from .spt import ShortestPathTree

#: Default LRU capacity.  Trees are O(nodes) dicts; at catalog sizes
#: (≤ a few hundred nodes) this bounds the cache to tens of megabytes.
#: At 50k+ nodes each tree is megabytes — size deliberately via
#: :data:`SPT_CACHE_ENV` or the ``--spt-cache-entries`` CLI flag.
DEFAULT_MAX_ENTRIES = 1024

#: Environment override for the default capacity of caches the sweep
#: drivers build internally.  Environment-based so it reaches pool
#: workers (which inherit ``os.environ``) without widening every driver
#: signature.
SPT_CACHE_ENV = "REPRO_SPT_CACHE_ENTRIES"


def default_max_entries() -> int:
    """Capacity for caches constructed without an explicit ``max_entries``."""
    raw = os.environ.get(SPT_CACHE_ENV, "").strip()
    if not raw:
        return DEFAULT_MAX_ENTRIES
    try:
        value = int(raw)
    except ValueError:
        raise RoutingError(
            f"invalid {SPT_CACHE_ENV}={raw!r}; expected a positive integer"
        ) from None
    if value < 1:
        raise RoutingError(
            f"invalid {SPT_CACHE_ENV}={raw!r}; expected a positive integer"
        )
    return value


class SPTCache:
    """LRU cache of full shortest-path trees, shared across call sites.

    Returned trees are shared objects — callers must treat them as
    immutable (``updated_tree`` already copies before mutating).
    """

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_entries")

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self.max_entries = (
            default_max_entries() if max_entries is None else max_entries
        )
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
            obs.inc("spt_cache.evictions")
            # Canonical eviction-pressure counter: sustained growth on a
            # large sweep means the pool is thrashing and ``max_entries``
            # should be raised (``--spt-cache-entries`` at the CLI).
            obs.inc("routing.sptcache.evictions")
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

    def seed_tree(
        self,
        topo: Topology,
        root: int,
        tree: ShortestPathTree,
        toward_root: bool = True,
    ) -> None:
        """Register an externally computed *exclusion-free* tree.

        Batched warmers (:meth:`repro.routing.tables.RoutingTable.warm`)
        compute many trees in one kernel call; seeding them here lets
        every later cache probe hit instead of recomputing.  The tree
        must be exactly what :meth:`forward_tree` / :meth:`reverse_tree`
        would have produced with no exclusions — the batched kernels
        guarantee that.  Counts neither a hit nor a miss.
        """
        csr = topo.csr()
        key = (id(topo), csr.version, toward_root, root, 0, 0)
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = (topo, tree)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            obs.inc("spt_cache.evictions")
            obs.inc("routing.sptcache.evictions")

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
