"""A uniform grid over points and segments, queried by boxes.

§II-A fails every router inside the failure area and every link across
it.  A region can only contain a point, or cut a segment, inside its own
box, so :meth:`FailureScenario.from_region
<repro.failures.model.FailureScenario.from_region>` asks this grid for
the routers and links that meet the region's search boxes and runs the
exact predicates on those alone.  §III-C's cross-link precompute
(:func:`~repro.geometry.planarity.compute_cross_links`) pairs the
segments that share a cell (:meth:`SpatialGrid.segment_cells`).

Cells are square, about four points each; coordinates beyond the points'
extent clamp to the border cells.  A point lives in the cell that
contains it.  A segment lives in the cells along its path — one run of
cells per grid row (or column) it crosses — so a long backbone link does
not occupy every cell of its bounding box.  Paths are padded by the
touch tolerance ``EPSILON``: two segments that cross, or touch within
it, share a cell.  Keys come back in the order they were added: callers
that build sets from them insert in the same order as a full scan would.

When numpy imports, the cells are computed as arrays, step for step the
Python loop's (which stays for platforms without numpy), and packed into
the same lists.  The grid keeps its segments' coordinates in one flat
array (:attr:`SpatialGrid.segment_coords`), which the cross-link
precompute reads instead of the segments.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain
from typing import Hashable, Iterable, Iterator, List, Sequence, Set, Tuple

from .point import EPSILON, Point

try:  # optional [fast] extra; the Python loop builds the same cells
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the numpy-less CI legs
    _np = None

#: ``(min_x, min_y, max_x, max_y)``.
Box = Tuple[float, float, float, float]


class SpatialGrid:
    """Points and segments bucketed into square cells.

    ``points`` and ``segments`` are ``(key, geometry)`` pairs; a segment's
    geometry is its two endpoints (a :class:`~repro.geometry.segment.Segment`
    or any ``(Point, Point)`` pair).  A query reports the keys of every item
    a box may touch — a superset, which the caller filters with its exact
    predicate.
    """

    def __init__(
        self,
        points: Sequence[Tuple[Hashable, Point]],
        segments: Sequence[Tuple[Hashable, Tuple[Point, Point]]],
    ) -> None:
        self.point_keys = [key for key, _p in points]
        self.segment_keys = [key for key, _s in segments]
        #: Segment ``i``'s ``ax, ay, bx, by`` at ``[4 * i : 4 * i + 4]`` —
        #: the one copy of the coordinates the cross-link precompute reads.
        self.segment_coords = array(
            "d", chain.from_iterable(chain.from_iterable(s for _key, s in segments))
        )
        xs = [p.x for _key, p in points if math.isfinite(p.x)] or [0.0]
        ys = [p.y for _key, p in points if math.isfinite(p.y)] or [0.0]
        self.x0, self.y0 = min(xs), min(ys)
        span_x, span_y = max(xs) - self.x0, max(ys) - self.y0
        span = max(span_x, span_y)
        side = math.ceil(math.sqrt(max(1, len(points)) / 4))
        # A subnormal span can divide to 0: such a map is one cell wide.
        self.width = span / side if span / side > 0 else 1.0
        self.cols = int(span_x / self.width) + 1
        self.rows = int(span_y / self.width) + 1
        #: The predicates' touch tolerance plus a margin for float rounding
        #: in coordinate arithmetic at this map's magnitude (orders of
        #: magnitude above a few ulps of it).
        self.slack = EPSILON + 1e-12 * (1.0 + max(map(abs, xs + ys)))

        if _np is None:
            point_cells: List[List[int]] = [[] for _ in range(self.cols * self.rows)]
            for index, (_key, p) in enumerate(points):
                point_cells[self._cell(p.y, self.y0, self.rows) * self.cols
                            + self._cell(p.x, self.x0, self.cols)].append(index)
            segment_cells: List[List[int]] = [[] for _ in range(self.cols * self.rows)]
            for index, coords in enumerate(quads(self.segment_coords)):
                for cell in self._segment_cells(*coords):
                    segment_cells[cell].append(index)
            self._point_start, self._point_items = _pack(point_cells)
            self._segment_start, self._segment_items = _pack(segment_cells)
        else:
            self._build_arrays(_np, points)

    def _cell(self, v: float, origin: float, count: int) -> int:
        """The cell index of coordinate ``v`` along one axis (clamped)."""
        c = (v - origin) / self.width
        # ``not c > 0`` also sends NaN to the first cell.
        return 0 if not c > 0 else (count - 1 if c >= count else int(c))

    def _span(self, lo: float, hi: float, origin: float, count: int) -> Tuple[int, int]:
        """First and last cell index along one axis meeting ``[lo, hi]`` ± slack."""
        return (
            self._cell(lo - self.slack, origin, count),
            self._cell(hi + self.slack, origin, count),
        )

    def _box_cells(self, box: Box) -> Iterator[Tuple[int, int]]:
        """``(first cell, one past the last)`` per grid row ``box`` meets."""
        cols = self.cols
        c0, c1 = self._span(box[0], box[2], self.x0, cols)
        r0, r1 = self._span(box[1], box[3], self.y0, self.rows)
        for r in range(r0, r1 + 1):
            yield r * cols + c0, r * cols + c1 + 1

    def _segment_cells(self, ax: float, ay: float, bx: float, by: float) -> List[int]:
        dx, dy = bx - ax, by - ay
        x0, y0, width, cols, rows = self.x0, self.y0, self.width, self.cols, self.rows
        c0, c1 = self._span(min(ax, bx), max(ax, bx), x0, cols)
        r0, r1 = self._span(min(ay, by), max(ay, by), y0, rows)
        if c0 == c1 or r0 == r1 or not (dx and dy and math.isfinite(dx * dy)):
            # One row or column of cells, or no usable slope: the whole box.
            return [c for r in range(r0, r1 + 1) for c in range(r * cols + c0, r * cols + c1 + 1)]
        # Walk the axis the segment spans fewer cells of: per strip, the
        # parameter range inside it (padded by the slack, then clamped to
        # the segment) gives one run of cells along the other axis.  Border
        # strips reach to infinity, as clamping does.
        cells: List[int] = []
        slack, inf = self.slack, math.inf
        if r1 - r0 <= c1 - c0:
            for r in range(r0, r1 + 1):
                t0 = ((y0 + r * width - slack if r else -inf) - ay) / dy
                t1 = ((y0 + (r + 1) * width + slack if r < rows - 1 else inf) - ay) / dy
                xa = ax + max(0.0, min(t0, t1)) * dx
                xb = ax + min(1.0, max(t0, t1)) * dx
                first, last = self._span(min(xa, xb), max(xa, xb), x0, cols)
                cells.extend(range(r * cols + first, r * cols + last + 1))
        else:
            for c in range(c0, c1 + 1):
                t0 = ((x0 + c * width - slack if c else -inf) - ax) / dx
                t1 = ((x0 + (c + 1) * width + slack if c < cols - 1 else inf) - ax) / dx
                ya = ay + max(0.0, min(t0, t1)) * dy
                yb = ay + min(1.0, max(t0, t1)) * dy
                first, last = self._span(min(ya, yb), max(ya, yb), y0, rows)
                cells.extend(range(first * cols + c, last * cols + c + 1, cols))
        return cells

    def _cells(self, np, v, origin: float, count: int):
        """:meth:`_cell` over an array of coordinates."""
        c = (v - origin) / self.width
        c = np.where(c > 0, c, 0.0)
        return np.where(c >= count, count - 1, c).astype(np.int64)

    def _build_arrays(self, np, points: Sequence[Tuple[Hashable, Point]]) -> None:
        """The packed cells of :meth:`_cell` and :meth:`_segment_cells`, as arrays.

        Every step is the Python loop's, element for element: ``min(a, b)``
        is ``where(b < a, b, a)`` and ``max(a, b)`` is ``where(b > a, b, a)``
        (not ``np.minimum``), so NaN, ±inf and ±0 land where the loop puts
        them.  Each segment becomes strips holding one run of cells each —
        its box's rows, or the strips of its walk — and a sort on ``(cell,
        segment)`` packs them.
        """
        # Imported here: repro.topology imports this package at load time.
        from ..topology.npcsr import expand_ranges

        x0, y0, width, cols, rows, slack = (
            self.x0, self.y0, self.width, self.cols, self.rows, self.slack
        )
        inf = math.inf
        n = len(points)
        xy = np.fromiter(chain.from_iterable(p for _key, p in points), np.float64, 2 * n)
        cell = self._cells(np, xy[1::2], y0, rows) * cols + self._cells(np, xy[0::2], x0, cols)
        self._point_start, self._point_items = _pack_arrays(np, cell, np.arange(n), cols * rows)

        ax, ay, bx, by = np.frombuffer(self.segment_coords, np.float64).reshape(-1, 4).T
        with np.errstate(all="ignore"):  # NaN and inf run through as in the loop
            dx, dy = bx - ax, by - ay
            c0 = self._cells(np, np.where(bx < ax, bx, ax) - slack, x0, cols)
            c1 = self._cells(np, np.where(bx > ax, bx, ax) + slack, x0, cols)
            r0 = self._cells(np, np.where(by < ay, by, ay) - slack, y0, rows)
            r1 = self._cells(np, np.where(by > ay, by, ay) + slack, y0, rows)
            whole = (c0 == c1) | (r0 == r1) | ~((dx != 0) & (dy != 0) & np.isfinite(dx * dy))
            by_rows = whole | (r1 - r0 <= c1 - c0)

            def strips(walk, lo, hi, edge0, edges, a, d, b, e):
                """Per walked strip: its segment, index, and the run along the other axis."""
                seg = np.flatnonzero(walk)
                counts = hi[seg] - lo[seg] + 1
                seg = np.repeat(seg, counts)
                k = lo[seg] + expand_ranges(0, counts)
                t0 = (np.where(k > 0, edge0 + k * width - slack, -inf) - a[seg]) / d[seg]
                t1 = (np.where(k < edges - 1, edge0 + (k + 1) * width + slack, inf) - a[seg]) / d[seg]
                t_lo, t_hi = np.where(t1 < t0, t1, t0), np.where(t1 > t0, t1, t0)
                ua = b[seg] + np.where(t_lo > 0.0, t_lo, 0.0) * e[seg]
                ub = b[seg] + np.where(t_hi < 1.0, t_hi, 1.0) * e[seg]
                return seg, k, np.where(ub < ua, ub, ua), np.where(ub > ua, ub, ua)

            seg_r, r, xa, xb = strips(by_rows, r0, r1, y0, rows, ay, dy, ax, dx)
            keep = whole[seg_r]
            first_r = np.where(keep, c0[seg_r], self._cells(np, xa - slack, x0, cols))
            last_r = np.where(keep, c1[seg_r], self._cells(np, xb + slack, x0, cols))
            seg_c, c, ya, yb = strips(~by_rows, c0, c1, x0, cols, ax, dx, ay, dy)
            first_c = self._cells(np, ya - slack, y0, rows)
            last_c = self._cells(np, yb + slack, y0, rows)
        seg = np.concatenate((seg_r, seg_c))
        base = np.concatenate((r * cols + first_r, first_c * cols + c))
        counts = np.concatenate((last_r - first_r, last_c - first_c)) + 1
        step = np.concatenate((np.ones_like(r), np.full_like(c, cols)))
        seg, base, step = np.repeat(seg, counts), np.repeat(base, counts), np.repeat(step, counts)
        cell = base + expand_ranges(0, counts) * step
        self._segment_start, self._segment_items = _pack_arrays(np, cell, seg, cols * rows)

    def query(self, boxes: Iterable[Box]) -> Tuple[List[Hashable], List[Hashable]]:
        """Keys of the points and of the segments any of ``boxes`` may touch.

        A box with a non-finite coordinate meets every cell, so it returns
        every key — the answer for an unbounded region.
        """
        point_hits: Set[int] = set()
        segment_hits: Set[int] = set()
        for box in boxes:
            if not all(math.isfinite(v) for v in box):
                return list(self.point_keys), list(self.segment_keys)
            for first, last in self._box_cells(box):
                start = self._point_start
                point_hits.update(self._point_items[start[first] : start[last]])
                start = self._segment_start
                segment_hits.update(self._segment_items[start[first] : start[last]])
        point_keys, segment_keys = self.point_keys, self.segment_keys
        return (
            [point_keys[i] for i in sorted(point_hits)],
            [segment_keys[i] for i in sorted(segment_hits)],
        )

    def segment_cells(self) -> Tuple[List[int], List[int]]:
        """The segments of every cell, packed: ``(start, items)``.

        Cell ``c`` holds ``items[start[c] : start[c + 1]]``, ascending
        indices into :attr:`segment_keys`, each at most once.
        """
        return self._segment_start, self._segment_items

    def __repr__(self) -> str:
        return (
            f"SpatialGrid(points={len(self.point_keys)}, "
            f"segments={len(self.segment_keys)}, cells={self.cols}x{self.rows})"
        )


def _pack(cells: List[List[int]]) -> Tuple[List[int], List[int]]:
    """Row-major buckets as one flat item list plus start offsets.

    The cells of one row are adjacent, so a run of columns is one slice.
    """
    start = [0] * (len(cells) + 1)
    items: List[int] = []
    for cell, bucket in enumerate(cells):
        items.extend(bucket)
        start[cell + 1] = len(items)
    return start, items


def quads(coords: array) -> Iterator[Tuple[float, float, float, float]]:
    """:attr:`SpatialGrid.segment_coords` as one ``(ax, ay, bx, by)`` per segment."""
    return zip(coords[0::4], coords[1::4], coords[2::4], coords[3::4])


def _pack_arrays(np, cell, items, count: int) -> Tuple[List[int], List[int]]:
    """:func:`_pack` of ``count`` cells from parallel arrays: ``items[i]`` is in ``cell[i]``."""
    start = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell, minlength=count), out=start[1:])
    return start.tolist(), items[np.lexsort((items, cell))].tolist()
