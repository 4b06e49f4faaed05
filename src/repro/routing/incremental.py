"""Incremental shortest-path-tree recomputation for failures.

§III-D of the paper: *"RTR adopts incremental recomputation [Narvaez et
al.] to calculate the shortest path from the recovery initiator to the
destination, which can be achieved within a few milliseconds even for
graphs with a thousand nodes."*

This module implements the deletion case of the Narvaez-style dynamic SPT
algorithm: given an SPT computed before the failure and a batch of removed
links/nodes, it updates only the affected subtree instead of recomputing
from scratch.  The result is identical to a fresh Dijkstra on
``G - removed`` (asserted by property-based tests), which is exactly the
guarantee RTR's phase 2 relies on.

Only deletions can occur during a failure event, and deleting a *non-tree*
link never changes any distance — so the affected set is precisely the
subtree hanging below the removed tree edges and removed nodes.

Like the core Dijkstra, the relax loops run on the flat-array CSR view:
removed links become a 0/1 flag array over interned link ids, removed
nodes a flag array over dense node indices, and neighbor iteration walks
the parallel arc arrays instead of re-deriving ``Link`` objects.

Where the numpy kernels serve the graph (:func:`repro.routing.kernels.
select_backend`), the update is instead the fresh numpy tree of
``G - removed`` from the same root: each whole-array pass costs O(arcs)
however small the damage, and copying and repairing 20k-entry dicts
costs more than that pass.  The heap repair below stays the reference.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Set

from .. import obs
from ..topology import Link, Topology
from . import kernels
from .spt import ShortestPathTree


def _children_map(tree: ShortestPathTree) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for node, parent in tree.parent.items():
        if parent is not None:
            children.setdefault(parent, []).append(node)
    return children


def updated_tree(
    topo: Topology,
    tree: ShortestPathTree,
    removed_links: Iterable[Link] = (),
    removed_nodes: Iterable[int] = (),
) -> ShortestPathTree:
    """A new SPT equal to Dijkstra on ``G - removed``, computed incrementally.

    ``tree`` must be a valid SPT of ``topo`` (forward or reverse); it is not
    modified.  Removed nodes lose all incident links and are dropped from
    the result.  Affected nodes that cannot be reattached become
    unreachable (absent from ``dist``).  Values are the fresh tree's; the
    heap repair appends reattached nodes to ``dist`` in settle order,
    while on numpy views the result is the fresh tree, in id order.
    """
    if not obs.enabled():
        return _updated_tree_kernel(topo, tree, removed_links, removed_nodes)
    with obs.span("spt.incremental"):
        obs.inc("spt.incremental_updates")
        return _updated_tree_kernel(topo, tree, removed_links, removed_nodes)


def _updated_tree_kernel(
    topo: Topology,
    tree: ShortestPathTree,
    removed_links: Iterable[Link] = (),
    removed_nodes: Iterable[int] = (),
) -> ShortestPathTree:
    csr = topo.csr()
    removed_node_set: Set[int] = set(removed_nodes)
    if tree.root in removed_node_set:
        # The root itself failed: nothing is reachable.
        return ShortestPathTree(tree.root, {}, {}, tree.toward_root)
    backend, np_view = kernels.select_backend(csr)
    if backend == "numpy":
        # A whole-array kernel touches every arc whatever the damage, so
        # repairing the tree saves nothing over a fresh tree of
        # ``G - removed`` — which is what the repair must equal.
        return kernels.dijkstra_numpy(
            topo,
            np_view,
            tree.root,
            tree.toward_root,
            csr.node_flags(removed_node_set),
            csr.link_flags(removed_links),
        )

    pos, ids = csr.pos, csr.ids
    indptr, nbr, lid = csr.indptr, csr.nbr, csr.lid
    wfwd, wrev = csr.wfwd, csr.wrev
    pair_lid = csr.pair_lid
    removed_link_flags = csr.link_flags(removed_links)
    node_removed = bytearray(csr.n)
    for node in removed_node_set:
        i = pos.get(node)
        if i is None:
            continue
        node_removed[i] = 1
        for arc in range(indptr[i], indptr[i + 1]):
            removed_link_flags[lid[arc]] = 1

    new = tree.copy()

    # 1. Directly affected: nodes whose tree edge to the parent was removed.
    directly_affected = set(n for n in removed_node_set if n in new.dist)
    for node, parent in new.parent.items():
        if parent is None:
            continue
        if removed_link_flags[pair_lid[(node, parent)]]:
            directly_affected.add(node)

    if not directly_affected:
        return new  # only non-tree links removed: no distance can change

    # 2. The full affected set is the union of their subtrees.
    children = _children_map(new)
    affected: Set[int] = set()
    stack = list(directly_affected)
    while stack:
        node = stack.pop()
        if node in affected:
            continue
        affected.add(node)
        stack.extend(children.get(node, ()))

    for node in affected:
        del new.dist[node]
        del new.parent[node]
    affected -= removed_node_set  # failed nodes are gone for good

    # 3. Reattach via a Dijkstra seeded from the intact boundary.
    toward_root = new.toward_root
    heap: List[tuple] = []
    best: Dict[int, float] = {}
    best_parent: Dict[int, int] = {}
    intact_dist = new.dist

    def relax(node: int, via: int, candidate: float) -> None:
        known = best.get(node)
        if known is None or candidate < known - 1e-12:
            best[node] = candidate
            best_parent[node] = via
            heapq.heappush(heap, (candidate, node))
        elif abs(candidate - known) <= 1e-12 and via < best_parent[node]:
            best_parent[node] = via

    for node in affected:
        u = pos[node]
        for arc in range(indptr[u], indptr[u + 1]):
            v = nbr[arc]
            if node_removed[v]:
                continue
            via = ids[v]
            if via in affected:
                continue
            if removed_link_flags[lid[arc]]:
                continue
            base = intact_dist.get(via)
            if base is None:
                continue  # neighbor was already unreachable pre-failure
            # Arc node -> via: entering cost toward the root is
            # cost(node, via) = wfwd; away from it cost(via, node) = wrev.
            step = wfwd[arc] if toward_root else wrev[arc]
            relax(node, via, base + step)

    settled: Set[int] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled or node not in affected:
            continue
        settled.add(node)
        new.dist[node] = d
        new.parent[node] = best_parent[node]
        u = pos[node]
        for arc in range(indptr[u], indptr[u + 1]):
            v = nbr[arc]
            if node_removed[v]:
                continue
            neighbor = ids[v]
            if neighbor not in affected or neighbor in settled:
                continue
            if removed_link_flags[lid[arc]]:
                continue
            # Relaxing neighbor via node: entering cost of the neighbor is
            # cost(neighbor, node) = wrev of this arc toward the root,
            # cost(node, neighbor) = wfwd away from it.
            step = wrev[arc] if toward_root else wfwd[arc]
            relax(neighbor, node, d + step)
    return new

