"""Cross-link computation for embedded graphs.

§III-C of the paper: *"For each link, routers precompute the set of links
across it."*  A :class:`~repro.geometry.spatial.SpatialGrid` registers each
segment in the cells along its path, padded by the touch tolerance, so
links that cross or touch share a cell.  Pairs within a cell whose bounding
boxes overlap go to the exact predicate, and any grid over the links gives
the relation of the reference sweep in
``tests/geometry/reference_cross_links.py``.  The relation comes back as
one :class:`CrossRows` over input positions (the topology's are link ids,
cached per CSR view by :func:`repro.topology.csr.cross_rows`): every row's
positions in one buffer of 4-byte ints, plus the row bounds.

The links' coordinates are read from the grid
(:attr:`~repro.geometry.spatial.SpatialGrid.segment_coords`), which is built
as arrays when numpy imports.  With numpy, blocks of at most ``_CHUNK``
pairs run through :func:`_cross_mask`, which compares *squared* distances
with ``EPSILON**2`` where :func:`segments_cross_raw` compares ``hypot``
with ``EPSILON`` — equal except within one rounding ulp of the tolerance,
i.e. for adversarial coordinates only.  It runs the touch test only on the
few pairs with an endpoint near the other link's line (763 of 3,034,102 on
``scale:20000``).  Each crossing pair is kept as one integer code, so no
per-pair Python object exists on that path.  Without numpy the same cells
are paired in Python and equal rows come back.
"""

from __future__ import annotations

from array import array
from itertools import combinations
from math import hypot, isfinite
from typing import Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .point import EPSILON
from .segment import Segment
from .spatial import SpatialGrid, quads

try:  # optional [fast] extra; the Python pairing computes the same rows
    import numpy as _np
except Exception:  # pragma: no cover - exercised by no-numpy CI job
    _np = None

LinkKey = TypeVar("LinkKey", bound=Hashable)

_EPS_SQ = EPSILON * EPSILON

#: The least normal float: the near-line bound's floor (see :func:`_cross_mask`).
_TINY = 2.0 ** -1022

#: Candidate pairs per block of cells (their temporaries take ≈ 170 B a pair).
_CHUNK = 1 << 14


class CrossRows:
    """The crossing relation as rows: row ``i`` lists what crosses item ``i``.

    Every row's entries sit in one buffer of 4-byte ints, ``ids``; row
    ``i`` is ``ids[bounds[i] : bounds[i + 1]]``, ascending, and indexing
    returns that slice (an ``array('i')``).  Both pairings of
    :func:`compute_cross_links` build one, so equal relations compare
    equal.  Read the rows, do not mutate the buffers.
    """

    __slots__ = ("ids", "bounds")

    def __init__(self, ids: array, bounds: array) -> None:
        #: Every row's entries, row after row (``array('i')``).
        self.ids = ids
        #: ``len(self) + 1`` row offsets into :attr:`ids` (``array('q')``).
        self.bounds = bounds

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "CrossRows":
        """The relation of ``rows``, each already ascending."""
        ids, bounds = array("i"), array("q", [0])
        for row in rows:
            ids.extend(row)
            bounds.append(len(ids))
        return cls(ids, bounds)

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, i: int) -> array:
        bounds = self.bounds
        if i < 0:
            i += len(bounds) - 1
        return self.ids[bounds[i] : bounds[i + 1]]

    def __iter__(self) -> Iterator[array]:
        ids, bounds = self.ids, self.bounds
        return (ids[lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CrossRows):
            return NotImplemented
        return self.bounds == other.bounds and self.ids == other.ids

    def __repr__(self) -> str:
        return f"CrossRows(rows={len(self)}, entries={len(self.ids)})"


def _orient_raw(ax: float, ay: float, bx: float, by: float, px: float, py: float) -> int:
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    if cross > EPSILON:
        return 1
    if cross < -EPSILON:
        return -1
    return 0


def _contains_raw(ax: float, ay: float, bx: float, by: float, px: float, py: float) -> bool:
    dx = bx - ax
    dy = by - ay
    length_sq = dx * dx + dy * dy
    if length_sq <= _EPS_SQ:
        cx, cy = ax, ay
    else:
        t = (px - ax) * dx + (py - ay) * dy
        t /= length_sq
        t = max(0.0, min(1.0, t))
        cx = ax + dx * t
        cy = ay + dy * t
    return hypot(px - cx, py - cy) <= EPSILON


def segments_cross_raw(
    ax: float, ay: float, bx: float, by: float,
    cx: float, cy: float, dx: float, dy: float,
) -> bool:
    """Whether segments ``ab`` and ``cd`` *properly* cross.

    This is the paper's "link across another link": the interiors
    intersect.  Links that only touch at a shared router do not cross;
    collinear overlaps and T-junctions without a shared router do.  Raw
    coordinates, no Point/Segment allocation per call; the Point-level
    spelling in ``tests/geometry/reference_cross_links.py`` is asserted
    equal by tests.
    """
    # Segments sharing a (numerically common) endpoint never cross.  This
    # check must come first: the tolerance-window outcomes below assume it.
    if (
        hypot(ax - cx, ay - cy) <= EPSILON
        or hypot(ax - dx, ay - dy) <= EPSILON
        or hypot(bx - cx, by - cy) <= EPSILON
        or hypot(bx - dx, by - dy) <= EPSILON
    ):
        return False

    o1 = _orient_raw(ax, ay, bx, by, cx, cy)
    o2 = _orient_raw(ax, ay, bx, by, dx, dy)
    o3 = _orient_raw(cx, cy, dx, dy, ax, ay)
    o4 = _orient_raw(cx, cy, dx, dy, bx, by)
    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True

    # An endpoint of one segment strictly inside the other also makes the
    # interiors intersect; "strictly" is implied because shared endpoints
    # were ruled out above.
    if _contains_raw(ax, ay, bx, by, cx, cy) or _contains_raw(ax, ay, bx, by, dx, dy):
        return True
    if _contains_raw(cx, cy, dx, dy, ax, ay) or _contains_raw(cx, cy, dx, dy, bx, by):
        return True
    return False


def _cross_mask(np, a, b, margin):
    """Vectorized :func:`segments_cross_raw` over two coordinate bundles.

    ``a`` and ``b`` are ``(ax, ay, bx, by)`` tuples of equal-length
    arrays.  Same arithmetic as the scalar predicate, with tolerance
    checks on squared distances (see module docstring).

    The four orientation cross products are computed once, and ``proper``
    is their sign test against ``EPSILON``.  The touch test (the four
    ``contains``) runs only on the pairs that are neither ``shared`` nor
    ``proper`` and have an endpoint ``r`` near the other link ``pq``'s
    line: ``|cross(p, q, r)| <= |pq|·margin + 2**-1022``, with ``|pq|`` read
    as ``|qx - px| + |qy - py|`` (at least the length).  No touch is
    skipped.  With ``u`` the unit roundoff and ``M`` the largest finite
    coordinate (a NaN or inf coordinate never touches):

    * ``contains`` accepting ``r`` puts it within ``EPSILON·(1 + 3u)`` of
      a computed point at most ``10u·M`` off the segment;
    * the exact cross product is ``|pq|`` times ``r``'s distance to the
      line, which is at most its distance to the segment;
    * rounding moves the cross product by at most ``4u·|pq|·|pr| <=
      12u·|pq|·M``.

    So ``|cross| <= |pq|·(EPSILON·(1 + 3u) + 22u·M)``.  ``margin =
    2·EPSILON + 1e-12·(1 + M)`` covers that with room for the rounding of
    the bound itself, and the ``2**-1022`` floor covers products that
    underflow.  Like :attr:`SpatialGrid.slack`, the margin grows with the
    coordinates' magnitude, because cross-product rounding does.
    """
    ax, ay, bx, by = a
    cx, cy, dx, dy = b

    def dist_sq(px, py, qx, qy):
        ex, ey = px - qx, py - qy
        return ex * ex + ey * ey

    shared = (
        (dist_sq(ax, ay, cx, cy) <= _EPS_SQ)
        | (dist_sq(ax, ay, dx, dy) <= _EPS_SQ)
        | (dist_sq(bx, by, cx, cy) <= _EPS_SQ)
        | (dist_sq(bx, by, dx, dy) <= _EPS_SQ)
    )

    def cross(px, py, qx, qy, rx, ry):
        return (qx - px) * (ry - py) - (qy - py) * (rx - px)

    c1 = cross(ax, ay, bx, by, cx, cy)
    c2 = cross(ax, ay, bx, by, dx, dy)
    c3 = cross(cx, cy, dx, dy, ax, ay)
    c4 = cross(cx, cy, dx, dy, bx, by)

    def apart(u, v):
        """``_orient_raw`` gives ``u`` and ``v`` opposite non-zero signs."""
        return ((u > EPSILON) & (v < -EPSILON)) | ((u < -EPSILON) & (v > EPSILON))

    proper = apart(c1, c2) & apart(c3, c4)
    crosses = ~shared & proper
    near_ab = (np.abs(bx - ax) + np.abs(by - ay)) * margin + _TINY
    near_cd = (np.abs(dx - cx) + np.abs(dy - cy)) * margin + _TINY
    near = ~(shared | proper) & (
        (np.abs(c1) <= near_ab)
        | (np.abs(c2) <= near_ab)
        | (np.abs(c3) <= near_cd)
        | (np.abs(c4) <= near_cd)
    )
    at = np.flatnonzero(near)
    if len(at):
        ax, ay, bx, by, cx, cy, dx, dy = (v[at] for v in (ax, ay, bx, by, cx, cy, dx, dy))

        def contains(px, py, qx, qy, rx, ry):
            ex, ey = qx - px, qy - py
            length_sq = ex * ex + ey * ey
            degenerate = length_sq <= _EPS_SQ
            t = ((rx - px) * ex + (ry - py) * ey) / np.where(degenerate, 1.0, length_sq)
            t = np.clip(t, 0.0, 1.0)
            nx = np.where(degenerate, px, px + ex * t)
            ny = np.where(degenerate, py, py + ey * t)
            return dist_sq(rx, ry, nx, ny) <= _EPS_SQ

        crosses[at] = (
            contains(ax, ay, bx, by, cx, cy)
            | contains(ax, ay, bx, by, dx, dy)
            | contains(cx, cy, dx, dy, ax, ay)
            | contains(cx, cy, dx, dy, bx, by)
        )
    return crosses


def _rows_python(coords, start, items):
    """Crossing rows, pairing the links of each cell in Python."""
    coords = list(quads(coords))
    boxes = [(min(ax, bx), min(ay, by), max(ax, bx), max(ay, by)) for ax, ay, bx, by in coords]
    rows = [[] for _ in coords]
    tested = set()
    for cell in range(len(start) - 1):
        for i, j in combinations(items[start[cell] : start[cell + 1]], 2):
            x0, y0, x1, y1 = boxes[i]
            u0, v0, u1, v1 = boxes[j]
            if u1 < x0 or x1 < u0 or v1 < y0 or y1 < v0 or (i, j) in tested:
                continue
            tested.add((i, j))
            if segments_cross_raw(*coords[i], *coords[j]):
                rows[i].append(j)
                rows[j].append(i)
    return CrossRows.from_rows(map(sorted, rows))


def _rows_numpy(coords, start, items):
    """Crossing rows from blocks of cells paired as arrays.

    Within a cell the entries ascend, so every found pair ``i < j`` is
    encoded once, as ``i * m + j``.  A pair found in several shared cells
    is found once per cell: one in-place sort plus a neighbour-difference
    mask drops the repeats (``np.unique`` costs more here, see
    EXPERIMENTS.md).  The reversed codes ``j * m + i`` join them, one more
    in-place sort puts row ``i`` at the code range ``[i * m, (i + 1) * m)``,
    and the codes modulo ``m`` are the rows' entries.
    """
    # Imported here: repro.topology imports this package at load time.
    from ..topology.npcsr import expand_ranges

    np = _np
    m = len(coords) // 4
    xy = np.frombuffer(coords, np.float64).reshape(m, 4).T.copy()  # rows ax, ay, bx, by
    margin = 2 * EPSILON + 1e-12 * (1.0 + (float(np.abs(xy).max()) if m else 0.0))
    lo_x, hi_x = np.minimum(xy[0], xy[2]), np.maximum(xy[0], xy[2])
    lo_y, hi_y = np.minimum(xy[1], xy[3]), np.maximum(xy[1], xy[3])
    start_a = np.asarray(start, dtype=np.int64)
    items_a = np.asarray(items, dtype=np.int64)
    counts = np.diff(start_a)
    # Cut the cells into blocks of at most _CHUNK pairs (a fuller cell is a
    # block of its own).
    edges, filled = [0], 0
    for cell, pairs in enumerate((counts * (counts - 1) // 2).tolist()):
        if filled and filled + pairs > _CHUNK:
            edges.append(cell)
            filled = 0
        filled += pairs
    edges.append(len(counts))
    found = [np.zeros(0, dtype=np.int64)]
    for c0, c1 in zip(edges, edges[1:]):
        members = items_a[start[c0] : start[c1]]
        # Pair every entry with the entries before it in its own cell.
        first = np.repeat(start_a[c0:c1] - start[c0], counts[c0:c1])
        rank = np.arange(len(members)) - first
        left, right = members[expand_ranges(first, rank)], np.repeat(members, rank)
        keep = (
            (lo_x[left] <= hi_x[right])
            & (lo_x[right] <= hi_x[left])
            & (lo_y[left] <= hi_y[right])
            & (lo_y[right] <= hi_y[left])
        )
        left, right = left[keep], right[keep]
        mask = _cross_mask(np, xy.take(left, axis=1), xy.take(right, axis=1), margin)
        found.append(left[mask] * m + right[mask])
    codes = np.concatenate(found)
    del found
    codes.sort()
    if len(codes):
        codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    pairs = len(codes)
    both = np.empty(2 * pairs, dtype=np.int64)
    both[:pairs] = codes
    upper = codes % m
    upper *= m
    codes //= m
    np.add(upper, codes, out=both[pairs:])
    del codes, upper
    both.sort()
    bounds = np.searchsorted(both, np.arange(m + 1, dtype=np.int64) * m)
    np.remainder(both, m, out=both)
    return CrossRows(_packed("i", both.astype(np.int32)), _packed("q", bounds))


def _packed(typecode: str, values) -> array:
    """The numpy array ``values`` copied into an ``array`` of the same item size."""
    out = array(typecode)
    out.frombytes(values.view(_np.uint8))
    return out


def compute_cross_links(
    links: Optional[Sequence[Tuple[Hashable, Segment]]] = None,
    grid: Optional[SpatialGrid] = None,
) -> CrossRows:
    """The crossing relation of ``links`` as one row per input position.

    ``links`` is a sequence of ``(key, segment)`` pairs.  Row ``i`` of the
    :class:`CrossRows` holds, ascending, the positions of the links that
    properly cross link ``i``; the relation is symmetric (``j in
    rows[i]`` iff ``i in rows[j]``).  Links sharing an endpoint never cross (see
    :func:`segments_cross_raw`).  ``grid``, if given, must hold ``links``
    as its segments, in order, and its coordinates are the ones read;
    ``links`` may then be left out.  Without a grid one is built over the
    links' endpoints.  A NaN or infinite coordinate raises ``ValueError``:
    the predicates order no such pair, so the two pairings would disagree.
    """
    if grid is None:
        if links is None:
            raise ValueError("compute_cross_links needs links or a grid")
        ends = dict.fromkeys(end for _, segment in links for end in segment)
        grid = SpatialGrid([(end, end) for end in ends], links)
    elif links is not None and grid.segment_keys != [key for key, _ in links]:
        raise ValueError("grid segments are not these links")
    coords = grid.segment_coords
    if _np is None:
        finite = all(map(isfinite, coords))
    else:
        finite = bool(_np.isfinite(_np.frombuffer(coords, _np.float64)).all())
    if not finite:
        raise ValueError("compute_cross_links needs finite link coordinates")
    rows = _rows_python if _np is None else _rows_numpy
    return rows(coords, *grid.segment_cells())


def is_planar_embedding(links: Sequence[Tuple[Hashable, Segment]]) -> bool:
    """Whether no two links properly cross (a plane embedding)."""
    return not compute_cross_links(links).ids


def crossing_pairs(
    links: Sequence[Tuple[LinkKey, Segment]],
) -> List[Tuple[LinkKey, LinkKey]]:
    """All unordered crossing pairs, each reported once (earlier link first)."""
    return [
        (links[i][0], links[j][0])
        for i, row in enumerate(compute_cross_links(links))
        for j in row
        if i < j
    ]
