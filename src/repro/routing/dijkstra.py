"""Dijkstra shortest paths with exclusion sets, on the CSR kernel.

The recovery algorithms never mutate the topology: they route on
``G - failed`` by passing exclusion sets.  This keeps one immutable
topology shared by thousands of test cases.

The inner loop runs on the :class:`~repro.topology.csr.CSRView` — dense
integer node indices, one row of ``(nbr, lid, wfwd, wrev)`` arc tuples per
node (``csr.arcs``), and per-call 0/1 exclusion flag arrays — instead of
dict lookups, ``Link.of`` construction, and frozenset probes.  Each kernel
hands its dense ``dist`` / ``parent`` lists to the tree as they are.
Results are bit-identical to the dict-based
reference implementation (asserted by the golden equivalence tests):
nodes are interned in sorted id order so index comparisons reproduce the
deterministic smaller-parent-id tie-break, and arcs keep the adjacency
dict's iteration order so every tolerance-window float outcome matches.

Tie-breaking is deterministic (prefer the smaller parent id), so routing
tables and recovery paths are reproducible across runs, and hop-by-hop
forwarding built from per-destination reverse trees is loop-free even among
equal-cost alternatives.

:func:`~repro.routing.kernels.select_backend` picks one of three kernels
per tree: the vectorized numpy kernels of :mod:`repro.routing.kernels` on
large exact graphs, the level-order BFS below on other unit-cost
(hop-count) graphs, and the heap kernel — the reference — for targeted
queries and every other cost.  Both alternatives are bit-identical to the
reference on the graphs they accept.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import FrozenSet, Iterable, Optional, Set

from .. import obs
from ..errors import NoPathError, UnknownNodeError
from ..topology import Link, Topology
from . import kernels
from .paths import Path
from .spt import ShortestPathTree

_EMPTY_NODES: FrozenSet[int] = frozenset()
_EMPTY_LINKS: FrozenSet[Link] = frozenset()

_INF = float("inf")

#: Total CSR Dijkstra executions in this process — cheap observability for
#: the benchmark harness (``BENCH_core.json`` records per-bench deltas).
_RUN_COUNT = 0


def dijkstra_run_count() -> int:
    """Number of Dijkstra kernel runs performed by this process so far."""
    return _RUN_COUNT


def _dijkstra_csr(
    topo: Topology,
    root: int,
    toward_root: bool,
    node_excl: Optional[bytearray],
    link_excl: Optional[bytearray],
    target: Optional[int] = None,
) -> ShortestPathTree:
    """Core Dijkstra on the CSR view with prebuilt exclusion flags.

    ``toward_root=False`` relaxes edges in direction root -> neighbor using
    ``cost(u, v)``; ``toward_root=True`` computes node -> root distances by
    relaxing with ``cost(v, u)`` (the cost of *entering* the settled node).
    Stops early when ``target`` is settled.
    """
    global _RUN_COUNT
    _RUN_COUNT += 1
    backend, np_view = kernels.select_backend(topo.csr(), target)
    if backend == "numpy":
        kernel = lambda: kernels.dijkstra_numpy(  # noqa: E731
            topo, np_view, root, toward_root, node_excl, link_excl
        )
    elif backend == "bfs":
        kernel = lambda: _bfs_csr_kernel(  # noqa: E731
            topo, root, toward_root, node_excl, link_excl
        )
    else:
        kernel = lambda: _dijkstra_csr_kernel(  # noqa: E731
            topo, root, toward_root, node_excl, link_excl, target
        )
    if not obs.enabled():
        return kernel()
    with obs.span("dijkstra.csr"):
        obs.inc("dijkstra.runs")
        return kernel()


def _dijkstra_csr_kernel(
    topo: Topology,
    root: int,
    toward_root: bool,
    node_excl: Optional[bytearray],
    link_excl: Optional[bytearray],
    target: Optional[int] = None,
) -> ShortestPathTree:
    csr = topo.csr()
    pos = csr.pos
    root_index = pos.get(root)
    if root_index is None:
        raise UnknownNodeError(root)
    target_index = pos.get(target, -1) if target is not None else -1
    arcs = csr.arcs
    if link_excl is None:
        link_excl = csr.no_links

    n = csr.n
    dist = [_INF] * n
    parent = [-1] * n
    # Excluded nodes start out settled, so no arc relaxes into them; the
    # root is pinned and expanded even when excluded.
    settled = bytearray(n) if node_excl is None else bytearray(node_excl)
    settled[root_index] = 0
    dist[root_index] = 0.0
    heap = [(0.0, root_index)]
    while heap:
        d, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        if u == target_index:
            break
        for v, l, wf, wr in arcs[u]:
            if settled[v] or link_excl[l]:
                continue
            candidate = d + (wr if toward_root else wf)
            known = dist[v]
            if candidate < known - 1e-12:
                dist[v] = candidate
                parent[v] = u
                heappush(heap, (candidate, v))
            elif candidate <= known + 1e-12 and u < parent[v]:
                # Deterministic tie-break: keep the smaller parent id
                # (index order equals id order by construction).
                parent[v] = u
    return ShortestPathTree(csr, root, dist, parent, toward_root)


def _bfs_csr_kernel(
    topo: Topology,
    root: int,
    toward_root: bool,
    node_excl: Optional[bytearray],
    link_excl: Optional[bytearray],
) -> ShortestPathTree:
    """Level-order BFS, bit-identical to the heap kernel on a unit view.

    With every cost 1.0 the heap pops in (level, index) order, so each
    node's parent is the smallest-index usable neighbour one level up.
    Scanning every frontier in ascending index and letting the first
    scan claim a node picks exactly that parent; levels are the floats
    ``k.0`` the heap's sums of 1.0 produce.  DESIGN.md §12 has the
    argument.  Both orientations relax the same arcs, so ``toward_root``
    only labels the tree.
    """
    csr = topo.csr()
    root_index = csr.pos.get(root)
    if root_index is None:
        raise UnknownNodeError(root)
    arcs = csr.arcs
    if link_excl is None:
        link_excl = csr.no_links

    n = csr.n
    dist = [_INF] * n
    parent = [-1] * n
    # Excluded nodes start out claimed, so no scan enters them; the root
    # is pinned and expanded even when excluded, as the heap kernel does.
    claimed = bytearray(n) if node_excl is None else bytearray(node_excl)
    claimed[root_index] = 1
    dist[root_index] = 0.0
    frontier = [root_index]
    level = 0.0
    while frontier:
        level += 1.0
        found = []
        for u in frontier:
            for v, l, _, _ in arcs[u]:
                if claimed[v] or link_excl[l]:
                    continue
                claimed[v] = 1
                dist[v] = level
                parent[v] = u
                found.append(v)
        # Discovery order is not index order; the parent rule needs the latter.
        found.sort()
        frontier = found
    return ShortestPathTree(csr, root, dist, parent, toward_root)


def _dijkstra(
    topo: Topology,
    root: int,
    toward_root: bool,
    excluded_nodes: Iterable[int],
    excluded_links: Iterable[Link],
    target: Optional[int] = None,
) -> ShortestPathTree:
    """Core Dijkstra with set-typed exclusions (compatibility shim)."""
    csr = topo.csr()
    node_excl = csr.node_flags(excluded_nodes) if excluded_nodes else None
    link_excl = csr.link_flags(excluded_links) if excluded_links else None
    return _dijkstra_csr(topo, root, toward_root, node_excl, link_excl, target)


def shortest_path_tree(
    topo: Topology,
    source: int,
    excluded_nodes: Optional[Set[int]] = None,
    excluded_links: Optional[Set[Link]] = None,
) -> ShortestPathTree:
    """Forward SPT: distances ``source -> node`` for every reachable node."""
    return _dijkstra(
        topo,
        source,
        toward_root=False,
        excluded_nodes=excluded_nodes or _EMPTY_NODES,
        excluded_links=excluded_links or _EMPTY_LINKS,
    )


def reverse_shortest_path_tree(
    topo: Topology,
    destination: int,
    excluded_nodes: Optional[Set[int]] = None,
    excluded_links: Optional[Set[Link]] = None,
) -> ShortestPathTree:
    """Reverse SPT: ``node -> destination`` distances and next hops.

    ``tree.next_hop(v)`` is ``v``'s routing-table next hop toward
    ``destination`` — following next hops from any node reproduces that
    node's shortest path, so paths built this way are consistent and
    loop-free.
    """
    return _dijkstra(
        topo,
        destination,
        toward_root=True,
        excluded_nodes=excluded_nodes or _EMPTY_NODES,
        excluded_links=excluded_links or _EMPTY_LINKS,
    )


def _penalized_csr_kernel(
    topo: Topology,
    root: int,
    link_units,
    quant: int,
    link_excl: Optional[bytearray],
    target: Optional[int] = None,
) -> ShortestPathTree:
    """Reference heap Dijkstra under the load-penalized metric.

    Identical to :func:`_dijkstra_csr_kernel` (forward direction) with
    every arc weight substituted by ``wfwd * (quant + units[lid])`` —
    the integer-quantized congestion multiplier of
    :mod:`repro.te.penalty`.  Distances are in penalized units.
    """
    csr = topo.csr()
    root_index = csr.pos.get(root)
    if root_index is None:
        raise UnknownNodeError(root)
    target_index = csr.pos.get(target, -1) if target is not None else -1
    arcs = csr.arcs
    if link_excl is None:
        link_excl = csr.no_links

    n = csr.n
    dist = [_INF] * n
    parent = [-1] * n
    settled = bytearray(n)
    dist[root_index] = 0.0
    heap = [(0.0, root_index)]
    while heap:
        d, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        if u == target_index:
            break
        for v, l, wf, _ in arcs[u]:
            if settled[v] or link_excl[l]:
                continue
            candidate = d + wf * (quant + link_units[l])
            known = dist[v]
            if candidate < known - 1e-12:
                dist[v] = candidate
                parent[v] = u
                heappush(heap, (candidate, v))
            elif candidate <= known + 1e-12 and u < parent[v]:
                parent[v] = u
    return ShortestPathTree(csr, root, dist, parent, toward_root=False)


def penalized_shortest_path_tree(
    topo: Topology,
    source: int,
    link_units,
    quant: int,
    excluded_links: Optional[Set[Link]] = None,
    target: Optional[int] = None,
) -> ShortestPathTree:
    """Forward SPT minimizing Σ ``cost · (quant + units(link))``.

    ``link_units`` is a lid-indexed sequence of non-negative integer
    penalty units (see :class:`repro.te.penalty.LinkPenalty`); ``quant``
    is the integer quantization base, so zero units everywhere yields the
    base-metric SPT with all distances scaled by ``quant``.  The backend
    is the base dispatcher's numpy choice
    (:func:`~repro.routing.kernels.select_backend`, bit-identical on large
    exact graphs), kept on the heap kernel when the penalized products
    could exceed 2**53 and everywhere else: penalized weights are not
    unit costs, so the BFS never serves them.  Tree
    distances are in penalized units — re-cost paths with
    :func:`repro.te.penalty.recost_path` before comparing against
    base-metric optima.
    """
    global _RUN_COUNT
    _RUN_COUNT += 1
    csr = topo.csr()
    link_excl = csr.link_flags(excluded_links) if excluded_links else None
    backend, np_view = kernels.select_backend(csr, target)
    if backend == "numpy" and kernels.penalized_eligible(
        np_view, quant, int(max(link_units, default=0))
    ):
        kernel = lambda: kernels.penalized_numpy(  # noqa: E731
            topo, np_view, source, link_units, quant, None, link_excl
        )
    else:
        kernel = lambda: _penalized_csr_kernel(  # noqa: E731
            topo, source, link_units, quant, link_excl, target
        )
    if not obs.enabled():
        return kernel()
    with obs.span("dijkstra.penalized"):
        obs.inc("dijkstra.runs")
        return kernel()


def shortest_path(
    topo: Topology,
    source: int,
    destination: int,
    excluded_nodes: Optional[Set[int]] = None,
    excluded_links: Optional[Set[Link]] = None,
) -> Path:
    """The shortest ``source -> destination`` path, or :class:`NoPathError`.

    Uses early-terminating Dijkstra from the source.
    """
    if source == destination:
        # The zero-hop path exists only if the node itself is usable: an
        # excluded source/destination can reach nothing, not even itself
        # (consistency with the exclusion contract of the non-trivial case).
        if excluded_nodes and source in excluded_nodes:
            raise NoPathError(source, destination)
        return Path((source,), 0.0)
    tree = _dijkstra(
        topo,
        source,
        toward_root=False,
        excluded_nodes=excluded_nodes or _EMPTY_NODES,
        excluded_links=excluded_links or _EMPTY_LINKS,
        target=destination,
    )
    if not tree.reaches(destination):
        raise NoPathError(source, destination)
    return tree.path_from(destination)


def shortest_path_or_none(
    topo: Topology,
    source: int,
    destination: int,
    excluded_nodes: Optional[Set[int]] = None,
    excluded_links: Optional[Set[Link]] = None,
) -> Optional[Path]:
    """Like :func:`shortest_path` but returns ``None`` when disconnected."""
    try:
        return shortest_path(topo, source, destination, excluded_nodes, excluded_links)
    except NoPathError:
        return None
