"""A uniform grid over points and segments, queried by boxes.

§II-A fails every router inside the failure area and every link across
it.  A region can only contain a point, or cut a segment, inside its own
box, so :meth:`FailureScenario.from_region
<repro.failures.model.FailureScenario.from_region>` asks this grid for
the routers and links that meet the region's search boxes and runs the
exact predicates on those alone.

Cells are square, about four points each; coordinates beyond the points'
extent clamp to the border cells.  A point lives in the cell that
contains it.  A segment lives in the cells along its path — one run of
cells per grid row (or column) it crosses — so a long backbone link does
not occupy every cell of its bounding box.  Keys come back in the order
they were added: callers that build sets from them insert in the same
order as a full scan would.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Iterator, List, Sequence, Set, Tuple

from .point import Point
from .segment import Segment

#: ``(min_x, min_y, max_x, max_y)``.
Box = Tuple[float, float, float, float]


class SpatialGrid:
    """Points and segments bucketed into square cells.

    ``points`` and ``segments`` are ``(key, geometry)`` pairs.  A query
    reports the keys of every item a box may touch — a superset, which
    the caller filters with its exact predicate.
    """

    def __init__(
        self,
        points: Sequence[Tuple[Hashable, Point]],
        segments: Sequence[Tuple[Hashable, Segment]],
    ) -> None:
        self.point_keys = [key for key, _p in points]
        self.segment_keys = [key for key, _s in segments]
        xs = [p.x for _key, p in points if math.isfinite(p.x)] or [0.0]
        ys = [p.y for _key, p in points if math.isfinite(p.y)] or [0.0]
        self.x0, self.y0 = min(xs), min(ys)
        span_x, span_y = max(xs) - self.x0, max(ys) - self.y0
        span = max(span_x, span_y)
        side = math.ceil(math.sqrt(max(1, len(points)) / 4))
        self.width = span / side if span > 0 else 1.0
        self.cols = int(span_x / self.width) + 1
        self.rows = int(span_y / self.width) + 1
        #: Margin for float rounding in coordinate arithmetic at this map's
        #: magnitude — orders of magnitude above a few ulps of it.
        self.slack = 1e-12 * (1.0 + max(map(abs, xs + ys)))

        point_cells: List[List[int]] = [[] for _ in range(self.cols * self.rows)]
        for index, (_key, p) in enumerate(points):
            point_cells[self._cell(p.y, self.y0, self.rows) * self.cols
                        + self._cell(p.x, self.x0, self.cols)].append(index)
        segment_cells: List[List[int]] = [[] for _ in range(self.cols * self.rows)]
        for index, (_key, segment) in enumerate(segments):
            for cell in self._segment_cells(segment):
                segment_cells[cell].append(index)
        self._point_start, self._point_items = _pack(point_cells)
        self._segment_start, self._segment_items = _pack(segment_cells)

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

    def _segment_cells(self, segment: Segment) -> List[int]:
        (ax, ay), (bx, by) = segment
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
