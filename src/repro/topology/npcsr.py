"""Numpy mirror of the flat-array CSR view.

The pure-Python :class:`~repro.topology.csr.CSRView` keeps its parallel
*lists* — they are what the reference kernels index, and every golden
byte is pinned to their iteration order.  This module adds a cached
numpy mirror of exactly those arrays so the vectorized kernels
(:mod:`repro.routing.kernels`) can run whole-array sweeps over
contiguous buffers instead of per-element Python bytecode:

* ``indptr``/``nbr``/``lid`` as ``int64`` and ``wfwd``/``wrev`` as
  ``float64``, bit-for-bit the same values as the list view;
* ``exact`` — whether every directed cost is a strictly positive
  integer small enough that any simple-path sum stays below 2**53.
  Sums of such float64 costs are exact (no rounding) and every
  tolerance-window comparison in the reference kernel collapses to an
  exact comparison, which is the precondition under which the sweep
  kernels are provably bit-identical to the heap-based reference (see
  DESIGN.md §12).  All built-in generators (catalog, grid, ring, scale)
  emit unit costs, so the flag is almost always true; a loaded topology
  with fractional or zero costs simply keeps the Python kernels;
* ``unit`` — the list view's own flag (every directed cost exactly
  1.0), which turns Dijkstra into BFS and unlocks the O(arcs)
  frontier-wave kernel.

Everything degrades gracefully without numpy: :func:`numpy_or_none`
returns ``None`` and no mirror is ever built.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

try:  # numpy is an optional extra (``pip install repro[fast]``)
    import numpy as _np
except Exception:  # pragma: no cover - tests hide numpy by patching _np
    _np = None

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .csr import CSRView


def numpy_or_none():
    """The numpy module when importable, else ``None`` (never raises)."""
    return _np


def expand_ranges(starts, counts):
    """Concatenate ``arange(starts[i], starts[i] + counts[i])``, vectorized.

    One ``arange`` over the output plus each range's shift, repeated over
    its length: a zero-length range repeats nothing, so it needs no guard.
    ``starts`` may be a scalar (``0`` gives each range's offsets).
    """
    np = _np
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - ends + counts, counts)


class NumpyCSR:
    """Contiguous numpy buffers mirroring one :class:`CSRView`.

    Attributes mirror the list view field for field; ``node_arc`` maps
    each arc to the dense index of the node that owns its slice (the
    gather side of the sweep kernels), and ``deg`` is the per-node arc
    count.  ``exact`` marks integer-valued costs (see module docstring).
    """

    __slots__ = (
        "n",
        "m",
        "indptr",
        "nbr",
        "wfwd",
        "wrev",
        "lid",
        "node_arc",
        "deg",
        "ids",
        "exact",
        "unit",
        "lid_size",
    )

    def __init__(self, view: "CSRView") -> None:
        np = _np
        assert np is not None, "NumpyCSR requires numpy"
        n = self.n = view.n
        self.m = len(view.nbr)
        self.indptr = np.ascontiguousarray(view.indptr, dtype=np.int64)
        self.nbr = np.ascontiguousarray(view.nbr, dtype=np.int64)
        self.wfwd = np.ascontiguousarray(view.wfwd, dtype=np.float64)
        self.wrev = np.ascontiguousarray(view.wrev, dtype=np.float64)
        self.lid = np.ascontiguousarray(view.lid, dtype=np.int64)
        self.ids = np.ascontiguousarray(view.ids, dtype=np.int64)
        self.lid_size = view.lid_size
        self.deg = np.diff(self.indptr)
        self.node_arc = np.repeat(
            np.arange(self.n, dtype=np.int64), self.deg
        )
        if self.m:
            # Strictly positive integers whose worst-case simple-path sum
            # (n hops of the largest cost) stays exactly representable.
            integral = bool(
                np.isfinite(self.wfwd).all()
                and np.isfinite(self.wrev).all()
                and (self.wfwd == np.floor(self.wfwd)).all()
                and (self.wrev == np.floor(self.wrev)).all()
                and float(self.wfwd.min()) >= 1.0
                and float(self.wrev.min()) >= 1.0
            )
            if integral:
                worst = max(float(self.wfwd.max()), float(self.wrev.max()))
                integral = worst * max(n, 1) < 2.0**53
            self.exact = integral
        else:
            self.exact = True
        # All-1.0 costs are integral with path sums of at most n: exact.
        self.unit = view.unit

    def __repr__(self) -> str:
        return f"NumpyCSR(nodes={self.n}, arcs={self.m}, exact={self.exact})"


def numpy_view(view: "CSRView") -> Optional[NumpyCSR]:
    """The cached numpy mirror of ``view`` (``None`` without numpy).

    The mirror is built once per CSR view (hence once per topology
    version) and cached on the view itself.
    """
    if _np is None:
        return None
    cached = view.np_cache
    if cached is None:
        cached = NumpyCSR(view)
        view.np_cache = cached
    return cached
