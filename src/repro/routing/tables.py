"""Routing tables for hop-by-hop default forwarding.

Intra-domain link-state routing (§II-A): every router knows the topology
and forwards along shortest paths.  A :class:`RoutingTable` is the fleet of
per-destination reverse shortest-path trees, computed lazily and shared —
``next_hop(u, dst)`` is what router ``u`` looks up when a data packet for
``dst`` arrives, and is what RTR checks when it decides that the default
next hop is unreachable.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional

from ..errors import UnknownNodeError
from ..topology import Link, Topology
from .cache import SPTCache
from .dijkstra import reverse_shortest_path_tree
from .kernels import batched_trees
from .paths import Path
from .spt import ShortestPathTree


class RoutingTable:
    """Lazily computed all-pairs next hops over one topology snapshot.

    An optional shared :class:`~repro.routing.cache.SPTCache` lets several
    tables (and the recovery protocols) reuse one pool of trees.
    """

    def __init__(self, topo: Topology, cache: Optional[SPTCache] = None) -> None:
        self.topo = topo
        self._cache = cache
        self._trees: Dict[int, ShortestPathTree] = {}

    def tree_to(self, destination: int) -> ShortestPathTree:
        """The reverse SPT rooted at ``destination`` (cached)."""
        if not self.topo.has_node(destination):
            raise UnknownNodeError(destination)
        tree = self._trees.get(destination)
        if tree is None:
            if self._cache is not None:
                tree = self._cache.reverse_tree(self.topo, destination)
            else:
                tree = reverse_shortest_path_tree(self.topo, destination)
            self._trees[destination] = tree
        return tree

    def next_hop(self, node: int, destination: int) -> Optional[int]:
        """Routing-table next hop of ``node`` toward ``destination``.

        ``None`` when the destination is unreachable in this snapshot or
        when ``node`` is the destination itself.
        """
        if node == destination:
            return None
        tree = self.tree_to(destination)
        if not tree.reaches(node):
            return None
        return tree.next_hop(node)

    def path(self, source: int, destination: int) -> Optional[Path]:
        """The default routing path, or ``None`` if unreachable."""
        tree = self.tree_to(destination)
        if not tree.reaches(source):
            return None
        return tree.path_from(source)

    def distance(self, source: int, destination: int) -> Optional[float]:
        """Shortest-path cost, or ``None`` if unreachable."""
        tree = self.tree_to(destination)
        return tree.dist.get(source)

    def destinations(self) -> Iterator[int]:
        """All possible destinations (every node)."""
        return self.topo.nodes()

    def warm(self, destinations: Iterable[int]) -> int:
        """Precompute the trees for ``destinations`` in one batched pass.

        Uses the batched multi-source kernel
        (:func:`~repro.routing.kernels.batched_trees`) — on eligible
        graphs all roots are solved over contiguous buffers instead of
        one heap run per destination, which is how a traffic sweep warms
        the table for its demand-matrix destination set before touching
        per-flow queries.  Results are bit-identical to the lazy path.
        Returns the number of trees actually computed (already-cached
        destinations are skipped).
        """
        missing = []
        for dst in destinations:
            if not self.topo.has_node(dst):
                raise UnknownNodeError(dst)
            if dst not in self._trees and dst not in missing:
                missing.append(dst)
        if not missing:
            return 0
        # The shared SPTCache keys by exclusion signature too, so warmed
        # trees are registered there as well when a cache is attached.
        for dst, tree in zip(missing, batched_trees(self.topo, missing, toward_root=True)):
            self._trees[dst] = tree
            if self._cache is not None:
                self._cache.seed_tree(self.topo, dst, tree, toward_root=True)
        return len(missing)

    def precompute_all(self) -> None:
        """Force computation of every per-destination tree."""
        for dst in self.topo.nodes():
            self.tree_to(dst)

    def edge_loads_to(
        self, destination: int, demands: Mapping[int, float]
    ) -> Dict[Link, float]:
        """Per-link demand flowing toward ``destination``, in one tree pass.

        ``demands`` maps source node -> demand rate; every source routes
        along its default next-hop chain, and each tree edge accumulates
        the total demand crossing it.  One reverse-SPT traversal serves
        all sources of the root (the traffic layer's batched alternative
        to walking ``path(source, destination)`` per pair).

        Only flow-carrying nodes are visited — the sources' next-hop
        chains, each followed until it joins one already seen — so the
        cost is O(touched), not O(tree), when demand reaches few of the
        tree's nodes (sampled matrices at scale).  They are processed in
        (distance desc, id asc) order: distance strictly decreases along
        every next hop, so a node's inflow is complete before it is
        forwarded, and every float sum and the result's key order are
        fixed regardless of dict iteration (executable spec: the heap
        sweep in ``tests/routing/reference_edge_loads.py``).
        """
        tree = self.tree_to(destination)
        dist = tree.dist
        parent = tree.parent
        carry: Dict[int, float] = {
            source: demand
            for source, demand in demands.items()
            if source != destination and demand > 0.0 and source in dist
        }
        touched = set(carry)
        for node in carry:
            node = parent[node]
            while node != destination and node not in touched:
                touched.add(node)
                node = parent[node]
        csr = self.topo.csr()
        pair_lid = csr.pair_lid
        links = csr.links
        loads: Dict[Link, float] = {}
        for _, node in sorted((-dist[node], node) for node in touched):
            flow = carry[node]
            nxt = parent[node]
            # A tree edge is an interned adjacency, and no two nodes share one.
            loads[links[pair_lid[(node, nxt)]]] = flow
            if nxt != destination:
                carry[nxt] = carry.get(nxt, 0.0) + flow
        return loads
