"""Vectorized (numpy) shortest-path kernels and backend selection.

The heap-based pure-Python kernel in :mod:`repro.routing.dijkstra` is the
*reference*: every golden byte in the repo is pinned to its output.  This
module adds numpy kernels that reproduce that output **bit for bit** on
the graphs where that equivalence is provable, plus the policy that
decides which backend a given computation uses.

Backend selection (``REPRO_KERNEL`` environment variable):

* ``auto`` (default) — numpy when it is importable, the graph has at
  least :data:`AUTO_MIN_NODES` nodes, the costs are *exact* (strictly
  positive integers, see :class:`~repro.topology.npcsr.NumpyCSR`), and
  the query has no early-termination target; pure Python otherwise.
* ``python`` — always the reference kernel.
* ``numpy`` — force numpy for every *eligible* computation (small graphs
  included).  Ineligible computations — non-integral costs, targeted
  early-exit queries — always stay on the reference kernel, because the
  vectorized kernels cannot reproduce them exactly.  Raises
  :class:`~repro.errors.RoutingError` when numpy is not importable.

Why bit-identical is achievable: with strictly positive integer costs,
every distance is an exactly-representable integer, so the reference
kernel's ``1e-12`` tolerance window collapses to exact comparisons, its
final distances equal the Bellman–Ford fixpoint, and its deterministic
tie-break yields ``parent[v] = min{u : dist[u] + w(u, v) == dist[v]}``.
Both quantities are computed here with whole-array sweeps: distances by
iterating a gather + ``np.minimum.reduceat`` relaxation to fixpoint
(or an O(arcs) frontier BFS when every cost is 1), parents by a single
arg-min pass over the converged distances.  DESIGN.md §12 spells out the
argument; the golden and property tests enforce it.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import RoutingError, UnknownNodeError
from ..topology.npcsr import NumpyCSR, numpy_or_none, numpy_view
from .spt import ShortestPathTree

#: Environment variable selecting the kernel backend.
KERNEL_ENV = "REPRO_KERNEL"

#: ``auto`` only picks numpy at or above this node count — below it the
#: per-call numpy overhead rivals the whole pure-Python run.
AUTO_MIN_NODES = 1024

#: ``auto`` only routes an incremental-SPT reattach through numpy when the
#: affected subtree has at least this many nodes *and* is at least this
#: fraction of the graph — each numpy sweep touches every arc, so small
#: localized failures are better served by the boundary-seeded heap.
AUTO_MIN_AFFECTED = 1024
AUTO_MIN_AFFECTED_FRAC = 0.125

_MODES = ("auto", "python", "numpy")

_INF = float("inf")

#: Vectorized kernel executions in this process (single-source trees count
#: 1, batched calls count one per root) — lets tests assert the numpy path
#: actually ran, symmetric with ``dijkstra.dijkstra_run_count``.
_NUMPY_RUNS = 0


def numpy_run_count() -> int:
    """Number of numpy kernel runs (per-root) performed by this process."""
    return _NUMPY_RUNS


def kernel_mode() -> str:
    """The validated ``REPRO_KERNEL`` setting (``auto`` when unset)."""
    mode = os.environ.get(KERNEL_ENV, "auto").strip().lower() or "auto"
    if mode not in _MODES:
        raise RoutingError(
            f"invalid {KERNEL_ENV}={mode!r}; expected one of {', '.join(_MODES)}"
        )
    return mode


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

    Returns ``("python", None)`` or ``("numpy", mirror)``.  ``target`` is
    the early-exit destination, which always forces the reference kernel
    (a partially settled tree has no whole-array equivalent).
    """
    mode = kernel_mode()
    if mode == "python":
        return "python", None
    if mode == "numpy" and not numpy_available():
        raise RoutingError(
            f"{KERNEL_ENV}=numpy but numpy is not importable; "
            "install the [fast] extra or unset the variable"
        )
    if target is not None:
        return "python", None
    if mode == "auto" and (not numpy_available() or csr.n < AUTO_MIN_NODES):
        return "python", None
    view = _eligible_view(csr)
    if view is None:
        return "python", None
    return "numpy", view


def incremental_backend(csr, affected_count: int) -> Tuple[str, Optional[NumpyCSR]]:
    """Backend for an incremental-SPT reattach over ``affected_count`` nodes."""
    mode = kernel_mode()
    if mode == "python":
        return "python", None
    if mode == "numpy" and not numpy_available():
        raise RoutingError(
            f"{KERNEL_ENV}=numpy but numpy is not importable; "
            "install the [fast] extra or unset the variable"
        )
    if mode == "auto":
        if (
            not numpy_available()
            or affected_count < AUTO_MIN_AFFECTED
            or affected_count < csr.n * AUTO_MIN_AFFECTED_FRAC
        ):
            return "python", None
    view = _eligible_view(csr)
    if view is None:
        return "python", None
    return "numpy", view


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
    """``parent[v] = min{u : dist[u] + w(u, v) == dist[v]}`` (else -1).

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
    return np.where(best < view.n, best, -1)


def _ranges_to_indices(np, starts, counts):
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` vectorized.

    Zero-length ranges are dropped up front — with them present the
    difference-scatter below would write twice to one boundary slot.
    """
    keep = counts > 0
    starts, counts = starts[keep], counts[keep]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    return np.cumsum(out)


def _bfs_unit(np, view: NumpyCSR, root_index: int, node_excl, link_excl):
    """Distances by frontier-wave BFS — valid only when every cost is 1.

    O(arcs) total work: each wave expands only the arcs *out of* the
    frontier (scatter direction), so the wave masks differ from the
    gather masks — here the *neighbor* endpoint is the relaxation target.
    """
    n = view.n
    dist = np.full(n, _INF)
    visited = np.zeros(n, dtype=bool)
    if node_excl is not None:
        # Excluded nodes can never be entered; pre-marking them visited
        # bars every wave from claiming them.
        visited |= np.frombuffer(bytes(node_excl), dtype=np.uint8) != 0
    link_bad = None
    if link_excl is not None:
        flags = np.frombuffer(bytes(link_excl), dtype=np.uint8)
        link_bad = flags[view.lid] != 0
    # The root is always usable (the reference kernel pins dist[root]=0
    # and relaxes its out-arcs even when the root itself is excluded).
    dist[root_index] = 0.0
    visited[root_index] = True
    frontier = np.array([root_index], dtype=np.int64)
    level = 0.0
    while frontier.size:
        arcs = _ranges_to_indices(np, view.indptr[frontier], view.deg[frontier])
        if link_bad is not None and arcs.size:
            arcs = arcs[~link_bad[arcs]]
        targets = view.nbr[arcs]
        targets = np.unique(targets)
        targets = targets[~visited[targets]]
        level += 1.0
        dist[targets] = level
        visited[targets] = True
        frontier = targets
    return dist


def _sweep(np, view: NumpyCSR, dist, weights, usable, update_mask=None, pin=None):
    """Iterate gather relaxations to fixpoint; returns converged ``dist``.

    ``update_mask`` restricts which rows may change (incremental reattach);
    ``pin`` is a node index whose distance is held at its seed value.
    Converges in at most eccentricity+1 sweeps; with positive costs the
    bound ``n + 1`` can never be hit (asserted defensively).
    """
    masked = weights if usable is None else np.where(usable, weights, _INF)
    for _ in range(view.n + 1):
        gathered = dist[view.nbr] + masked
        reduced = _segment_min(np, gathered, view)
        new = np.minimum(dist, reduced)
        if pin is not None:
            new[pin] = dist[pin]
        if update_mask is not None:
            new = np.where(update_mask, new, dist)
        if np.array_equal(new, dist):
            return dist
        dist = new
    raise AssertionError("sweep kernel failed to converge")  # pragma: no cover


# ----------------------------------------------------------------------
# Single-source trees
# ----------------------------------------------------------------------


def _solve_arrays(np, view: NumpyCSR, root_index: int, toward_root, node_excl, link_excl):
    """Converged (dist, parent) arrays for one root."""
    weights = _gather_weights(view, toward_root)
    usable = _gather_usable(view, node_excl, link_excl)
    if view.unit:
        dist = _bfs_unit(np, view, root_index, node_excl, link_excl)
    else:
        dist = np.full(view.n, _INF)
        dist[root_index] = 0.0
        dist = _sweep(np, view, dist, weights, usable, pin=root_index)
    parent = _parent_pass(np, view, dist, weights, usable)
    parent[root_index] = -1
    return dist, parent


def _tree_from_arrays(csr, root: int, dist, parent, toward_root: bool) -> ShortestPathTree:
    """Build a ShortestPathTree bit-identical to the reference kernel's.

    The reference inserts nodes in ascending dense-index order (== id
    order) and stores plain Python floats; ``tolist`` preserves both the
    exact bits and that insertion order.
    """
    np = numpy_or_none()
    ids = csr.ids  # python list, index -> id
    reach = np.flatnonzero(np.isfinite(dist))
    keys = [ids[i] for i in reach.tolist()]
    dist_map: Dict[int, float] = dict(zip(keys, dist[reach].tolist()))
    parent_map: Dict[int, Optional[int]] = {
        k: (ids[p] if p >= 0 else None)
        for k, p in zip(keys, parent[reach].tolist())
    }
    return ShortestPathTree(root, dist_map, parent_map, toward_root)


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
    return _tree_from_arrays(csr, root, dist, parent, toward_root)


# ----------------------------------------------------------------------
# Penalized-metric trees (repro.te congestion-aware routing)
# ----------------------------------------------------------------------


def penalized_eligible(view: Optional[NumpyCSR], quant: int, max_units: int) -> bool:
    """Whether the penalized weights stay exactly representable.

    The congestion-aware metric multiplies every base cost by
    ``quant + units(link)`` (all integers), so the bit-identical sweep
    argument of DESIGN.md §12 holds iff the worst simple-path sum of
    *penalized* costs still fits below 2**53.
    """
    if view is None or not view.exact:
        return False
    if view.m == 0:
        return True
    worst_base = max(float(view.wfwd.max()), float(view.wrev.max()))
    return worst_base * (quant + max_units) * max(view.n, 1) < 2.0**53


def penalized_backend(
    csr, quant: int, max_units: int
) -> Tuple[str, Optional[NumpyCSR]]:
    """Resolve the backend for one penalized-metric computation.

    Mirrors :func:`select_backend`: ``REPRO_KERNEL=python`` forces the
    reference kernel, ``numpy`` forces numpy for eligible graphs (and
    errors when numpy is absent), ``auto`` picks numpy at scale.
    Ineligible penalized weights (non-exact base costs, or products too
    large for exact float64 sums) always stay on the reference kernel.
    """
    mode = kernel_mode()
    if mode == "python":
        return "python", None
    if mode == "numpy" and not numpy_available():
        raise RoutingError(
            f"{KERNEL_ENV}=numpy but numpy is not importable; "
            "install the [fast] extra or unset the variable"
        )
    if mode == "auto" and (not numpy_available() or csr.n < AUTO_MIN_NODES):
        return "python", None
    view = _eligible_view(csr)
    if not penalized_eligible(view, quant, max_units):
        return "python", None
    return "numpy", view


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
    return _tree_from_arrays(csr, root, dist, parent, toward_root=False)


# ----------------------------------------------------------------------
# Batched multi-source
# ----------------------------------------------------------------------

#: Roots per dense-sweep chunk — bounds the (chunk x arcs) temporaries to a
#: few tens of MB even on 100k-node graphs.
BATCH_CHUNK = 32


def batched_dijkstra_arrays(
    topo,
    roots: Sequence[int],
    toward_root: bool = False,
    node_excl: Optional[bytearray] = None,
    link_excl: Optional[bytearray] = None,
    view: Optional[NumpyCSR] = None,
):
    """(R, n) ``dist`` and ``parent`` matrices for many roots in one call.

    Rows follow ``roots`` order; columns are dense node indices
    (``topo.csr().ids`` maps them back to node ids).  ``parent`` holds
    dense indices, -1 for roots/unreached.  Unit-cost graphs run one
    O(arcs) BFS per root into the preallocated output; general integer
    graphs run dense chunked sweeps (:data:`BATCH_CHUNK` roots at a time)
    so the per-sweep work is one (chunk x arcs) gather.  Requires the
    numpy backend (callers fall back to per-root reference trees via
    ``REPRO_KERNEL=python``).
    """
    global _NUMPY_RUNS
    np = numpy_or_none()
    if np is None:
        raise RoutingError("batched_dijkstra requires numpy (install the [fast] extra)")
    csr = topo.csr()
    if view is None:
        view = _eligible_view(csr)
        if view is None:
            raise RoutingError(
                "batched_dijkstra requires exact (positive integer) link costs"
            )
    root_idx = []
    for root in roots:
        i = csr.pos.get(root)
        if i is None:
            raise UnknownNodeError(root)
        root_idx.append(i)
    n, r = view.n, len(root_idx)
    dist_mat = np.full((r, n), _INF)
    parent_mat = np.full((r, n), -1, dtype=np.int64)
    weights = _gather_weights(view, toward_root)
    usable = _gather_usable(view, node_excl, link_excl)
    _NUMPY_RUNS += r
    if obs.enabled():
        obs.inc("dijkstra.numpy_runs", r)
        obs.inc("dijkstra.batched_roots", r)

    if view.unit:
        for row, root_index in enumerate(root_idx):
            dist = _bfs_unit(np, view, root_index, node_excl, link_excl)
            dist_mat[row] = dist
            parent = _parent_pass(np, view, dist, weights, usable)
            parent[root_index] = -1
            parent_mat[row] = parent
        return dist_mat, parent_mat

    masked = weights if usable is None else np.where(usable, weights, _INF)
    extended_indptr = view.indptr[:-1]
    for lo in range(0, r, BATCH_CHUNK):
        hi = min(lo + BATCH_CHUNK, r)
        chunk = root_idx[lo:hi]
        block = dist_mat[lo:hi]
        rows = np.arange(len(chunk))
        block[rows, chunk] = 0.0
        pad = np.full((len(chunk), 1), _INF)
        for _ in range(n + 1):
            gathered = block[:, view.nbr] + masked[None, :]
            gathered = np.concatenate([gathered, pad], axis=1)
            reduced = np.minimum.reduceat(gathered, extended_indptr, axis=1)
            reduced[:, view.deg == 0] = _INF
            new = np.minimum(block, reduced)
            new[rows, chunk] = 0.0
            if np.array_equal(new, block):
                break
            block = new
        else:  # pragma: no cover - positive costs always converge
            raise AssertionError("batched sweep failed to converge")
        dist_mat[lo:hi] = block
        for row, root_index in zip(range(lo, hi), chunk):
            parent = _parent_pass(np, view, dist_mat[row], weights, usable)
            parent[root_index] = -1
            parent_mat[row] = parent
    return dist_mat, parent_mat


def batched_trees(
    topo,
    roots: Sequence[int],
    toward_root: bool = False,
    excluded_nodes: Iterable[int] = (),
    excluded_links: Iterable = (),
) -> List[ShortestPathTree]:
    """Many single-source trees in one call, bit-identical to the reference.

    Uses the batched numpy kernel when eligible; otherwise falls back to
    per-root reference Dijkstra (same results, just not batched).
    """
    from . import dijkstra as _dijkstra_mod

    csr = topo.csr()
    node_excl = csr.node_flags(excluded_nodes) if excluded_nodes else None
    link_excl = csr.link_flags(excluded_links) if excluded_links else None
    backend, view = select_backend(csr)
    if backend == "numpy":
        dist_mat, parent_mat = batched_dijkstra_arrays(
            topo, roots, toward_root, node_excl, link_excl, view=view
        )
        return [
            _tree_from_arrays(csr, root, dist_mat[i], parent_mat[i], toward_root)
            for i, root in enumerate(roots)
        ]
    return [
        _dijkstra_mod._dijkstra_csr(topo, root, toward_root, node_excl, link_excl)
        for root in roots
    ]


# ----------------------------------------------------------------------
# Incremental-SPT reattach
# ----------------------------------------------------------------------


def reattach_numpy(
    topo,
    view: NumpyCSR,
    new: ShortestPathTree,
    affected: Iterable[int],
    node_removed: bytearray,
    removed_link_flags: bytearray,
) -> ShortestPathTree:
    """Numpy reattach step of the incremental SPT update.

    ``new`` is the tree copy with every affected node already deleted;
    ``affected`` are the (alive) nodes to reattach.  Computes the same
    boundary-seeded Dijkstra as the reference reattach loop as a
    masked fixpoint: intact distances are fixed seeds, only affected rows
    may change, removed links/nodes are masked out.  Results (values and
    ``new.dist`` insertion order — ascending (distance, id), the heap's
    settle order) are bit-identical to the reference loop.
    """
    global _NUMPY_RUNS
    np = numpy_or_none()
    csr = topo.csr()
    pos, ids = csr.pos, csr.ids
    _NUMPY_RUNS += 1
    if obs.enabled():
        obs.inc("spt.incremental_numpy")

    n = view.n
    aff_mask = np.zeros(n, dtype=bool)
    for node in affected:
        aff_mask[pos[node]] = True

    dist = np.full(n, _INF)
    for node, d in new.dist.items():
        dist[pos[node]] = d

    weights = _gather_weights(view, new.toward_root)
    usable = _gather_usable(view, None, removed_link_flags)
    # Arcs into removed nodes can never relax; arcs *from* removed nodes
    # die on their own (a removed node's distance is +inf).
    removed_arr = np.frombuffer(bytes(node_removed), dtype=np.uint8) != 0
    if removed_arr.any():
        owner_ok = ~removed_arr[view.node_arc]
        usable = owner_ok if usable is None else (usable & owner_ok)

    dist = _sweep(np, view, dist, weights, usable, update_mask=aff_mask)
    parent = _parent_pass(np, view, dist, weights, usable)

    # Insert reattached nodes in the reference heap's settle order:
    # ascending (distance, id) — id order equals index order.
    reattached = np.flatnonzero(aff_mask & np.isfinite(dist))
    order = np.lexsort((reattached, dist[reattached]))
    for i in reattached[order].tolist():
        node = ids[i]
        new.dist[node] = float(dist[i])
        new.parent[node] = ids[parent[i]] if parent[i] >= 0 else None
    return new
