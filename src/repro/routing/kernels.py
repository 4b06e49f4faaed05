"""Vectorized (numpy) shortest-path kernels and backend selection.

The heap-based pure-Python kernel in :mod:`repro.routing.dijkstra` is the
*reference*: every golden byte in the repo is pinned to its output.  This
module adds numpy kernels that reproduce that output **bit for bit** on
the graphs where that equivalence is provable, plus the rule that
decides which kernel a given computation uses.

Backend selection (:func:`select_backend`) is one rule with three
outcomes, and no setting:

* **numpy** when the query has no early-termination target, the graph
  has at least :data:`AUTO_MIN_NODES` nodes, and its costs are *exact*
  (strictly positive integers, see
  :class:`~repro.topology.npcsr.NumpyCSR`) — which also requires numpy
  to be importable.  Below the threshold the per-call numpy overhead
  rivals the whole pure-Python run.
* **bfs** — the pure-Python level-order kernel of
  :mod:`repro.routing.dijkstra` — when there is no target and every cost
  is 1.0 (``CSRView.unit``, hop-count routing, as every built-in
  generator emits).
* **heap**, the reference, otherwise: targeted queries and non-unit
  costs (penalized metrics, weighted ``file:`` graphs) have no exact
  level-order or vectorized equivalent.

Why bit-identical is achievable: with strictly positive integer costs,
every distance is an exactly-representable integer, so the reference
kernel's ``1e-12`` tolerance window collapses to exact comparisons, its
final distances equal the Bellman–Ford fixpoint, and its deterministic
tie-break yields ``parent[v] = min{u : dist[u] + w(u, v) == dist[v]}``.
Both quantities are computed here with whole-array sweeps: distances by
iterating a gather + ``np.minimum.reduceat`` relaxation to fixpoint,
parents by a single arg-min pass over the converged distances — or,
when every cost is 1, both in one O(arcs) frontier BFS that gives each
node the smallest-index parent of the wave that reaches it.  DESIGN.md
§12 spells out the argument; the golden and property tests enforce it.

Trees leave these kernels as arrays — float64 distances and int32
parents, 12 bytes a node
(:meth:`~repro.routing.spt.ShortestPathTree.from_arrays`); the
reference-shaped dicts are built only if a caller reads them.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .. import obs
from ..errors import UnknownNodeError
from ..topology.npcsr import NumpyCSR, expand_ranges, numpy_or_none, numpy_view
from .spt import ShortestPathTree

#: Numpy only runs at or above this node count — below it the per-call
#: numpy overhead rivals the whole pure-Python run.
AUTO_MIN_NODES = 1024

_INF = float("inf")

#: Vectorized kernel executions in this process, one per tree — lets tests
#: assert the numpy path actually ran, symmetric with
#: ``dijkstra.dijkstra_run_count``.
_NUMPY_RUNS = 0


def numpy_run_count() -> int:
    """Number of numpy kernel runs (one per tree) performed by this process."""
    return _NUMPY_RUNS


def numpy_available() -> bool:
    """Whether the numpy backend can be used at all in this process."""
    return numpy_or_none() is not None


def _eligible_view(csr) -> Optional[NumpyCSR]:
    """The numpy mirror when the graph's costs admit exact vector kernels."""
    view = numpy_view(csr)
    if view is None or not view.exact:
        return None
    return view


def select_backend(csr, target: Optional[int] = None) -> Tuple[str, Optional[NumpyCSR]]:
    """Resolve the backend for one single-source computation.

    Returns ``("numpy", mirror)``, ``("bfs", None)`` or ``("heap", None)``:

    * numpy — no ``target``, at least :data:`AUTO_MIN_NODES` nodes and
      exact costs;
    * bfs — no ``target`` and a unit-cost view (``csr.unit``): the
      pure-Python level-order kernel;
    * heap — the reference kernel, for everything else.

    ``target`` is the early-exit destination, which always keeps the heap
    kernel (a partially settled tree has no whole-tree equivalent).  The
    node count is checked before the mirror is built, so small graphs
    never pay for one.
    """
    if target is not None:
        return "heap", None
    if csr.n >= AUTO_MIN_NODES:
        view = _eligible_view(csr)
        if view is not None:
            return "numpy", view
    if csr.unit:
        return "bfs", None
    return "heap", None


# ----------------------------------------------------------------------
# Array-level primitives
# ----------------------------------------------------------------------


def _gather_weights(view: NumpyCSR, toward_root: bool):
    """Per-arc entering cost at the slice owner's side (gather direction).

    At node ``v``'s slice, the arc to neighbor ``u`` stores
    ``wfwd = cost(v, u)`` and ``wrev = cost(u, v)``.  A forward tree
    relaxes ``dist[v] = dist[u] + cost(u, v)`` (gather ``wrev``); a
    reverse tree relaxes ``dist[v] = cost(v, u) + dist[u]`` (gather
    ``wfwd``).
    """
    return view.wfwd if toward_root else view.wrev


def _gather_usable(view: NumpyCSR, node_excl, link_excl):
    """Boolean per-arc mask for the gather direction, or ``None``.

    An arc at ``v``'s slice is unusable when ``v`` itself is excluded
    (nothing may *enter* an excluded node — matching the reference
    kernel, which checks only the relaxation target) or when its link is
    excluded.  An excluded *source* needs no mask: it keeps an infinite
    distance, except the root, whose out-arcs must relax exactly like the
    reference kernel relaxes them.
    """
    np = numpy_or_none()
    usable = None
    if link_excl is not None:
        flags = np.frombuffer(bytes(link_excl), dtype=np.uint8)
        usable = flags[view.lid] == 0
    if node_excl is not None:
        flags = np.frombuffer(bytes(node_excl), dtype=np.uint8)
        owner_ok = flags[view.node_arc] == 0
        usable = owner_ok if usable is None else (usable & owner_ok)
    return usable


def _segment_min(np, values, view: NumpyCSR):
    """Per-node minimum of a per-arc array (empty slices -> +inf).

    ``np.minimum.reduceat`` needs two guards: an appended +inf sentinel so
    trailing indices equal to ``m`` stay in bounds (and the final slice,
    which reduceat runs to the end of the array, absorbs it harmlessly),
    and an explicit overwrite for zero-degree nodes, for which reduceat
    returns the element *at* the slice start instead of an identity.
    """
    extended = np.append(values, _INF)
    reduced = np.minimum.reduceat(extended, view.indptr[:-1])
    reduced[view.deg == 0] = _INF
    return reduced


def _parent_pass(np, view: NumpyCSR, dist, weights, usable):
    """``parent[v] = min{u : dist[u] + w(u, v) == dist[v]}`` (else -1), as int32.

    Exact float comparisons are sound here because the caller only runs
    this on *exact* views (integer distances).
    """
    gathered = dist[view.nbr] + (
        weights if usable is None else np.where(usable, weights, _INF)
    )
    ok = np.isfinite(gathered) & (gathered == dist[view.node_arc])
    candidates = np.where(ok, view.nbr, view.n)
    extended = np.append(candidates, np.int64(view.n))
    best = np.minimum.reduceat(extended, view.indptr[:-1])
    best[view.deg == 0] = view.n
    return np.where(best < view.n, best, -1).astype(np.int32)


def _bfs_unit(np, view: NumpyCSR, root_index: int, node_excl, link_excl):
    """Distances and int32 parents by frontier-wave BFS — only when every cost is 1.

    O(arcs) total work: each wave expands only the arcs *out of* the
    frontier (scatter direction), so the wave masks differ from the
    gather masks — here the *neighbor* endpoint is the relaxation target.
    The next frontier is the unvisited targets scattered into a boolean
    mark array and read back with ``flatnonzero``: sorted and unique, as
    ``np.unique`` would give, without a sort per wave.

    A node's parent is set in the wave that first reaches it, to the
    smallest-index frontier node with a usable arc to it
    (``np.minimum.at``).  That is :func:`_parent_pass`'s rule: the nodes
    one level closer to the root are exactly that wave's frontier.
    """
    n = view.n
    dist = np.full(n, _INF)
    # int64 like the arc arrays: ``np.minimum.at`` with a cast is slow.
    parent = np.full(n, n, dtype=np.int64)
    if node_excl is None:
        unvisited = np.ones(n, dtype=bool)
    else:
        # Excluded nodes can never be entered; pre-marking them visited
        # bars every wave from claiming them.
        unvisited = np.frombuffer(bytes(node_excl), dtype=np.uint8) == 0
    link_bad = None
    if link_excl is not None:
        flags = np.frombuffer(bytes(link_excl), dtype=np.uint8)
        link_bad = flags[view.lid] != 0
    # The root is always usable (the reference kernel pins dist[root]=0
    # and relaxes its out-arcs even when the root itself is excluded).
    dist[root_index] = 0.0
    unvisited[root_index] = False
    mark = np.zeros(n, dtype=bool)
    frontier = np.array([root_index], dtype=np.int64)
    level = 0.0
    while frontier.size:
        arcs = expand_ranges(view.indptr[frontier], view.deg[frontier])
        if link_bad is not None:
            arcs = arcs[~link_bad[arcs]]
        targets = view.nbr[arcs]
        fresh = unvisited[targets]
        targets = targets[fresh]
        np.minimum.at(parent, targets, view.node_arc[arcs[fresh]])
        mark[targets] = True
        frontier = np.flatnonzero(mark)
        mark[frontier] = False
        level += 1.0
        dist[frontier] = level
        unvisited[frontier] = False
    return dist, np.where(parent < n, parent, -1).astype(np.int32)


def _sweep(np, view: NumpyCSR, dist, weights, usable, pin):
    """Iterate gather relaxations to fixpoint; returns converged ``dist``.

    ``pin`` is the root's node index, whose distance is held at its seed
    value.  Converges in at most eccentricity+1 sweeps; with positive
    costs the bound ``n + 1`` can never be hit (asserted defensively).
    """
    masked = weights if usable is None else np.where(usable, weights, _INF)
    for _ in range(view.n + 1):
        gathered = dist[view.nbr] + masked
        reduced = _segment_min(np, gathered, view)
        new = np.minimum(dist, reduced)
        new[pin] = dist[pin]
        if np.array_equal(new, dist):
            return dist
        dist = new
    raise AssertionError("sweep kernel failed to converge")  # pragma: no cover


# ----------------------------------------------------------------------
# Single-source trees
# ----------------------------------------------------------------------


def _solve_arrays(np, view: NumpyCSR, root_index: int, toward_root, node_excl, link_excl):
    """Converged (dist, parent) arrays for one root."""
    if view.unit:
        return _bfs_unit(np, view, root_index, node_excl, link_excl)
    weights = _gather_weights(view, toward_root)
    usable = _gather_usable(view, node_excl, link_excl)
    dist = np.full(view.n, _INF)
    dist[root_index] = 0.0
    dist = _sweep(np, view, dist, weights, usable, pin=root_index)
    parent = _parent_pass(np, view, dist, weights, usable)
    parent[root_index] = -1
    return dist, parent


def dijkstra_numpy(
    topo,
    view: NumpyCSR,
    root: int,
    toward_root: bool,
    node_excl: Optional[bytearray],
    link_excl: Optional[bytearray],
) -> ShortestPathTree:
    """Full single-source tree on the numpy backend (no early exit)."""
    global _NUMPY_RUNS
    np = numpy_or_none()
    csr = topo.csr()
    root_index = csr.pos.get(root)
    if root_index is None:
        raise UnknownNodeError(root)
    _NUMPY_RUNS += 1
    if obs.enabled():
        obs.inc("dijkstra.numpy_runs")
    dist, parent = _solve_arrays(np, view, root_index, toward_root, node_excl, link_excl)
    return ShortestPathTree.from_arrays(csr, root, dist, parent, toward_root)


# ----------------------------------------------------------------------
# Penalized-metric trees (repro.te congestion-aware routing)
# ----------------------------------------------------------------------


def penalized_eligible(view: NumpyCSR, quant: int, max_units: int) -> bool:
    """Whether the penalized weights of an exact view stay exactly representable.

    The congestion-aware metric multiplies every base cost by
    ``quant + units(link)`` (all integers), so the bit-identical sweep
    argument of DESIGN.md §12 holds iff the worst simple-path sum of
    *penalized* costs still fits below 2**53.
    """
    if view.m == 0:
        return True
    worst_base = max(float(view.wfwd.max()), float(view.wrev.max()))
    return worst_base * (quant + max_units) * max(view.n, 1) < 2.0**53


def penalized_numpy(
    topo,
    view: NumpyCSR,
    root: int,
    units,
    quant: int,
    node_excl: Optional[bytearray],
    link_excl: Optional[bytearray],
) -> ShortestPathTree:
    """Forward SPT under the load-penalized metric, vectorized.

    ``units`` is a lid-indexed integer array of penalty units; the
    per-arc gather weight becomes ``wrev * (quant + units[lid])`` —
    symmetric per link, so both directions of an adjacency see the same
    multiplier.  Distances are in penalized (scaled) units; callers
    re-cost paths in the base metric (:func:`repro.te.penalty.recost_path`).
    Bit-identical to the reference heap kernel with the same substituted
    weights (same integer-exactness argument as the base kernels).
    """
    global _NUMPY_RUNS
    np = numpy_or_none()
    csr = topo.csr()
    root_index = csr.pos.get(root)
    if root_index is None:
        raise UnknownNodeError(root)
    _NUMPY_RUNS += 1
    if obs.enabled():
        obs.inc("dijkstra.numpy_runs")
        obs.inc("te.penalized.numpy_runs")
    units_arr = np.asarray(units, dtype=np.float64)
    weights = view.wrev * (float(quant) + units_arr[view.lid])
    usable = _gather_usable(view, node_excl, link_excl)
    dist = np.full(view.n, _INF)
    dist[root_index] = 0.0
    dist = _sweep(np, view, dist, weights, usable, pin=root_index)
    parent = _parent_pass(np, view, dist, weights, usable)
    parent[root_index] = -1
    return ShortestPathTree.from_arrays(csr, root, dist, parent, toward_root=False)
