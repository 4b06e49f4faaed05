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

Like the core Dijkstra, the repair runs on the CSR view's dense node
indices: it copies the tree's ``dist`` / ``parent`` storage, removed links
become a 0/1 flag array over interned link ids, and neighbor iteration
walks each node's row of ``csr.arcs`` instead of re-deriving ``Link``
objects.

Where the numpy kernels serve the graph (:func:`repro.routing.kernels.
select_backend`), the update is instead the fresh numpy tree of
``G - removed`` from the same root: each whole-array pass costs O(arcs)
however small the damage, and copying and repairing 20k-entry trees
costs more than that pass.  The heap repair below stays the reference.
Since that fresh tree reads only the old tree's root and orientation, a
caller may name the old tree by a :class:`PreFailureTree`, which is built
only where the repair reads it.
"""

from __future__ import annotations

import heapq
from itertools import compress
from typing import Callable, Dict, Iterable, List, NamedTuple, Set, Union

from .. import obs
from ..topology import Link, Topology
from . import kernels
from .spt import ShortestPathTree

_INF = float("inf")


class PreFailureTree(NamedTuple):
    """An SPT of ``root`` not built yet: ``build()`` returns it."""

    root: int
    toward_root: bool
    build: Callable[[], ShortestPathTree]


def updated_tree(
    topo: Topology,
    tree: Union[ShortestPathTree, PreFailureTree],
    removed_links: Iterable[Link] = (),
    removed_nodes: Iterable[int] = (),
) -> ShortestPathTree:
    """A new SPT equal to Dijkstra on ``G - removed``, computed incrementally.

    ``tree`` must be a valid SPT of ``topo`` (forward or reverse), or a
    :class:`PreFailureTree` that builds one; it is not modified.  Removed
    nodes lose all incident links and are dropped from the result.
    Affected nodes that cannot be reattached become unreachable (absent
    from ``dist``).  Values are the fresh tree's; on numpy views the
    result is the fresh tree itself, and a :class:`PreFailureTree` is
    never built there.
    """
    if not obs.enabled():
        return _updated_tree_kernel(topo, tree, removed_links, removed_nodes)
    with obs.span("spt.incremental"):
        obs.inc("spt.incremental_updates")
        return _updated_tree_kernel(topo, tree, removed_links, removed_nodes)


def _updated_tree_kernel(
    topo: Topology,
    tree: Union[ShortestPathTree, PreFailureTree],
    removed_links: Iterable[Link] = (),
    removed_nodes: Iterable[int] = (),
) -> ShortestPathTree:
    csr = topo.csr()
    removed_node_set: Set[int] = set(removed_nodes)
    if tree.root in removed_node_set:
        # The root itself failed: nothing is reachable.
        return ShortestPathTree(
            csr, tree.root, [_INF] * csr.n, [-1] * csr.n, tree.toward_root
        )
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

    if isinstance(tree, PreFailureTree):
        tree = tree.build()
    pos, arcs, links = csr.pos, csr.arcs, csr.links
    cut = csr.link_flags(removed_links)
    dist = list(tree.dense_dist)
    parent = list(tree.dense_parent)

    # 1. Directly affected: reached removed nodes, and the child end of
    #    every removed tree edge (a removed node's links are all removed).
    directly_affected = []
    for node in removed_node_set:
        i = pos.get(node)
        if i is None:
            continue
        if dist[i] != _INF:
            directly_affected.append(i)
        for _, l, _, _ in arcs[i]:
            cut[l] = 1
    for l in compress(range(len(cut)), cut):
        a, b = links[l]
        a, b = pos[a], pos[b]
        if parent[a] == b:
            directly_affected.append(a)
        elif parent[b] == a:
            directly_affected.append(b)

    if not directly_affected:
        return tree.copy()  # only non-tree links removed: no distance can change

    # 2. The full affected set is the union of their subtrees; it loses
    #    its distances and parents, which are rebuilt below.
    children: Dict[int, List[int]] = {}
    for v, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(v)
    pending = bytearray(csr.n)
    stack = directly_affected
    while stack:
        u = stack.pop()
        if pending[u]:
            continue
        pending[u] = 1
        dist[u] = _INF
        parent[u] = -1
        stack.extend(children.get(u, ()))
    affected = list(compress(range(csr.n), pending))
    for node in removed_node_set:  # failed nodes are gone for good
        i = pos.get(node)
        if i is not None:
            pending[i] = 0

    # 3. Reattach via a Dijkstra seeded from the intact boundary.  ``dist``
    #    and ``parent`` hold each pending node's best offer so far.
    toward_root = tree.toward_root
    heap: List[tuple] = []

    def relax(v: int, via: int, candidate: float) -> None:
        known = dist[v]
        if candidate < known - 1e-12:
            dist[v] = candidate
            parent[v] = via
            heapq.heappush(heap, (candidate, v))
        elif candidate <= known + 1e-12 and via < parent[v]:
            parent[v] = via

    for u in affected:
        if not pending[u]:
            continue
        for v, l, wf, wr in arcs[u]:
            # An unreached, failed or affected neighbor has no distance.
            if pending[v] or cut[l] or dist[v] == _INF:
                continue
            # Arc u -> v: entering cost toward the root is
            # cost(u, v) = wfwd; away from it cost(v, u) = wrev.
            relax(u, v, dist[v] + (wf if toward_root else wr))

    while heap:
        d, u = heapq.heappop(heap)
        if not pending[u]:
            continue
        pending[u] = 0  # settled: its offer is final
        for v, l, wf, wr in arcs[u]:
            if not pending[v] or cut[l]:
                continue
            # Relaxing v via u: entering cost of v is cost(v, u) = wrev of
            # this arc toward the root, cost(u, v) = wfwd away from it.
            relax(v, u, d + (wr if toward_root else wf))
    return ShortestPathTree(csr, tree.root, dist, parent, toward_root)
