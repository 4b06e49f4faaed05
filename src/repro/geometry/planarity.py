"""Cross-link computation for embedded graphs.

§III-C of the paper: *"For each link, routers precompute the set of links
across it."*  This module provides that precomputation for an arbitrary set
of embedded links.  A sweep over bounding boxes keeps the common (mostly
planar, geometrically local) ISP case close to linear; the worst case is
the unavoidable O(m^2) pair check.

At internet scale (:mod:`repro.topology.scale` emits ~2 links per node,
so 100k links at 50k nodes) even the pruned Python sweep takes minutes.
When numpy is importable and the link count reaches
:data:`NUMPY_CROSS_MIN_LINKS`, :func:`compute_cross_links` switches to a
vectorized two-class pass: geometrically short links are bucketed into a
uniform grid sized to the median bounding box (two crossing segments
have overlapping boxes, hence share a cell), long links are swept
against a sorted-x window, and the exact crossing predicate runs once
over the deduplicated candidate array in chunks.  The vector predicate
performs the same float arithmetic as :func:`segments_cross_raw` except
that tolerance checks compare *squared* distances against
``EPSILON**2`` instead of ``math.hypot(...) <= EPSILON`` — equivalent
for every input whose distances are not within one rounding ulp of the
1e-9 tolerance boundary, i.e. everything but adversarially constructed
coordinates (property-tested against the Python sweep on random
embeddings).  ``REPRO_KERNEL=python`` forces the Python sweep here too.
"""

from __future__ import annotations

import os
from math import hypot
from typing import Dict, Hashable, List, Sequence, Set, Tuple, TypeVar

from .point import EPSILON
from .segment import Segment

try:  # optional [fast] extra; the Python sweep remains the reference
    import numpy as _np
except Exception:  # pragma: no cover - exercised by no-numpy CI job
    _np = None

LinkKey = TypeVar("LinkKey", bound=Hashable)

_EPS_SQ = EPSILON * EPSILON

#: Link count at or above which :func:`compute_cross_links` uses the
#: vectorized pass (when numpy is importable).  Catalog and test graphs
#: stay far below it, so their results keep coming from the reference
#: sweep byte for byte.
NUMPY_CROSS_MIN_LINKS = 4096

#: Candidate pairs evaluated per predicate chunk (bounds peak memory).
_CHUNK = 1 << 20


def _bbox(segment: Segment) -> Tuple[float, float, float, float]:
    return (
        min(segment.a.x, segment.b.x),
        min(segment.a.y, segment.b.y),
        max(segment.a.x, segment.b.x),
        max(segment.a.y, segment.b.y),
    )


def _bboxes_overlap(
    b1: Tuple[float, float, float, float], b2: Tuple[float, float, float, float]
) -> bool:
    return not (b1[2] < b2[0] or b2[2] < b1[0] or b1[3] < b2[1] or b2[3] < b1[1])


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
    """Raw-coordinate :func:`~repro.geometry.segment.segments_cross`.

    Same predicate, same float arithmetic, same tolerance checks — just
    without Point/Segment allocation per call, for the O(m^2) cross-link
    precomputation (asserted equivalent by tests).
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


def _cross_mask(np, a, b):
    """Vectorized :func:`segments_cross_raw` over two coordinate bundles.

    ``a`` and ``b`` are ``(ax, ay, bx, by)`` tuples of equal-length
    arrays.  Same arithmetic as the scalar predicate, with tolerance
    checks on squared distances (see module docstring).
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

    def orient(px, py, qx, qy, rx, ry):
        cross = (qx - px) * (ry - py) - (qy - py) * (rx - px)
        return np.where(cross > EPSILON, 1, np.where(cross < -EPSILON, -1, 0))

    o1 = orient(ax, ay, bx, by, cx, cy)
    o2 = orient(ax, ay, bx, by, dx, dy)
    o3 = orient(cx, cy, dx, dy, ax, ay)
    o4 = orient(cx, cy, dx, dy, bx, by)
    proper = (
        (o1 != o2) & (o3 != o4) & (o1 != 0) & (o2 != 0) & (o3 != 0) & (o4 != 0)
    )

    def contains(px, py, qx, qy, rx, ry):
        ex, ey = qx - px, qy - py
        length_sq = ex * ex + ey * ey
        degenerate = length_sq <= _EPS_SQ
        t = ((rx - px) * ex + (ry - py) * ey) / np.where(degenerate, 1.0, length_sq)
        t = np.clip(t, 0.0, 1.0)
        nx = np.where(degenerate, px, px + ex * t)
        ny = np.where(degenerate, py, py + ey * t)
        return dist_sq(rx, ry, nx, ny) <= _EPS_SQ

    touching = (
        contains(ax, ay, bx, by, cx, cy)
        | contains(ax, ay, bx, by, dx, dy)
        | contains(cx, cy, dx, dy, ax, ay)
        | contains(cx, cy, dx, dy, bx, by)
    )
    return ~shared & (proper | touching)


def _candidate_pairs(np, coords, minx, miny, maxx, maxy):
    """Bbox-overlapping (i, j) candidate pairs, i < j, possibly repeated.

    Short links (bounding box comparable to the median) go into a
    uniform grid — two crossing segments have overlapping boxes, so they
    share at least one cell.  The few long links (backbone chords,
    PoP-to-backbone uplinks) are each tested against the x-sorted window
    of boxes they overlap, which avoids flooding the grid with huge
    bbox rectangles.
    """
    # Imported here: repro.topology imports this package at load time.
    from ..topology.npcsr import expand_ranges

    span = np.maximum(maxx - minx, maxy - miny)
    x0, x1 = float(minx.min()), float(maxx.max())
    y0, y1 = float(miny.min()), float(maxy.max())
    extent = max(x1 - x0, y1 - y0, 1e-9)
    cell = max(2.0 * float(np.median(span)), extent / 512.0, 1e-9)
    long_mask = span > 4.0 * cell
    short = np.flatnonzero(~long_mask)
    long_idx = np.flatnonzero(long_mask)

    pair_lo: list = []
    pair_hi: list = []

    # --- short x short: uniform grid over bounding boxes -------------
    if len(short) > 1:
        g = max(1, min(int(extent / cell) + 1, 2048))
        ix0 = np.clip(((minx[short] - x0) / cell).astype(np.int64), 0, g - 1)
        ix1 = np.clip(((maxx[short] - x0) / cell).astype(np.int64), 0, g - 1)
        iy0 = np.clip(((miny[short] - y0) / cell).astype(np.int64), 0, g - 1)
        iy1 = np.clip(((maxy[short] - y0) / cell).astype(np.int64), 0, g - 1)
        width = ix1 - ix0 + 1
        cells_per = width * (iy1 - iy0 + 1)
        member = np.repeat(np.arange(len(short)), cells_per)
        local = expand_ranges(np.zeros(len(short), dtype=np.int64), cells_per)
        cell_ids = (iy0[member] + local // width[member]) * g + (
            ix0[member] + local % width[member]
        )
        order = np.argsort(cell_ids, kind="stable")
        member = short[member[order]]
        cell_ids = cell_ids[order]
        # Within each cell, pair every entry with every earlier entry.
        boundaries = np.flatnonzero(np.diff(cell_ids)) + 1
        group_start = np.zeros(len(cell_ids), dtype=np.int64)
        group_start[boundaries] = boundaries
        np.maximum.accumulate(group_start, out=group_start)
        local_rank = np.arange(len(cell_ids)) - group_start
        firsts = member[expand_ranges(group_start, local_rank)]
        seconds = np.repeat(member, local_rank)
        pair_lo.append(np.minimum(firsts, seconds))
        pair_hi.append(np.maximum(firsts, seconds))

    # --- long x everything: windowed sweep over sorted min-x ---------
    if len(long_idx):
        ax, ay, bx, by = coords
        order = np.argsort(minx, kind="stable")
        minx_o = minx[order]
        maxx_o = maxx[order]
        miny_o = miny[order]
        maxy_o = maxy[order]
        for i in long_idx.tolist():
            # Every j with minx_j <= maxx_i and maxx_j >= minx_i ...
            hi = int(np.searchsorted(minx_o, maxx[i], side="right"))
            mask = (
                (maxx_o[:hi] >= minx[i])
                & (miny_o[:hi] <= maxy[i])
                & (maxy_o[:hi] >= miny[i])
            )
            hit = order[:hi][mask]
            hit = hit[hit != i]
            if len(hit):
                # A long link's bounding box is huge but the segment is a
                # thin diagonal: bbox overlap alone admits nearly everything
                # in its strip.  Require the candidate's box to straddle the
                # supporting line (all four corners on one side, beyond the
                # touch tolerance, cannot cross or touch it).
                dxl = bx[i] - ax[i]
                dyl = by[i] - ay[i]
                c1 = dxl * (miny[hit] - ay[i]) - dyl * (minx[hit] - ax[i])
                c2 = dxl * (miny[hit] - ay[i]) - dyl * (maxx[hit] - ax[i])
                c3 = dxl * (maxy[hit] - ay[i]) - dyl * (minx[hit] - ax[i])
                c4 = dxl * (maxy[hit] - ay[i]) - dyl * (maxx[hit] - ax[i])
                tol = EPSILON * 2.0 * max(
                    (dxl * dxl + dyl * dyl) ** 0.5, 1.0
                )
                lo_c = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
                hi_c = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
                hit = hit[(lo_c <= tol) & (hi_c >= -tol)]
            if len(hit):
                pair_lo.append(np.minimum(hit, i))
                pair_hi.append(np.maximum(hit, i))

    if not pair_lo:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Candidates may repeat (a pair can share several grid cells, and the
    # long sweep revisits long/long pairs from both sides).  Deduplicating
    # here means sorting tens of millions of rows; re-testing a duplicate
    # and re-adding it to a set is far cheaper, so duplicates stay.
    return np.concatenate(pair_lo), np.concatenate(pair_hi)


def _compute_cross_links_numpy(
    links: Sequence[Tuple[LinkKey, Segment]],
) -> Dict[LinkKey, Set[LinkKey]]:
    np = _np
    coords = np.array(
        [(s.a.x, s.a.y, s.b.x, s.b.y) for _, s in links], dtype=np.float64
    )
    ax, ay, bx, by = (np.ascontiguousarray(c) for c in coords.T)
    minx, maxx = np.minimum(ax, bx), np.maximum(ax, bx)
    miny, maxy = np.minimum(ay, by), np.maximum(ay, by)

    left, right = _candidate_pairs(np, (ax, ay, bx, by), minx, miny, maxx, maxy)
    # Exact bbox-overlap filter (the grid over-approximates).
    keep = (
        (minx[left] <= maxx[right])
        & (minx[right] <= maxx[left])
        & (miny[left] <= maxy[right])
        & (miny[right] <= maxy[left])
    )
    left, right = left[keep], right[keep]

    result: Dict[LinkKey, Set[LinkKey]] = {key: set() for key, _ in links}
    keys = [key for key, _ in links]
    for start in range(0, len(left), _CHUNK):
        li = left[start : start + _CHUNK]
        ri = right[start : start + _CHUNK]
        mask = _cross_mask(
            np,
            (ax[li], ay[li], bx[li], by[li]),
            (ax[ri], ay[ri], bx[ri], by[ri]),
        )
        for i, j in zip(li[mask].tolist(), ri[mask].tolist()):
            result[keys[i]].add(keys[j])
            result[keys[j]].add(keys[i])
    return result


def compute_cross_links(
    links: Sequence[Tuple[LinkKey, Segment]],
) -> Dict[LinkKey, Set[LinkKey]]:
    """Map every link key to the set of link keys that properly cross it.

    ``links`` is a sequence of ``(key, segment)`` pairs.  The result is
    symmetric: ``k2 in result[k1]`` iff ``k1 in result[k2]``.  Links sharing
    an endpoint never cross (see :func:`repro.geometry.segment.segments_cross`).
    """
    if (
        _np is not None
        and len(links) >= NUMPY_CROSS_MIN_LINKS
        and os.environ.get("REPRO_KERNEL", "").strip().lower() != "python"
    ):
        return _compute_cross_links_numpy(links)
    result: Dict[LinkKey, Set[LinkKey]] = {key: set() for key, _ in links}
    # Sort by min-x so the inner loop can stop early; run the pair test on
    # raw coordinates (the O(m^2) hot loop of topology construction).
    boxes = [_bbox(seg) for _, seg in links]
    coords = [(seg.a.x, seg.a.y, seg.b.x, seg.b.y) for _, seg in links]
    order = sorted(range(len(links)), key=lambda i: boxes[i][0])
    for idx, i in enumerate(order):
        key_i = links[i][0]
        ax, ay, bx, by = coords[i]
        _minx_i, miny_i, maxx_i, maxy_i = boxes[i]
        crossings_i = result[key_i]
        for j in order[idx + 1 :]:
            box_j = boxes[j]
            if box_j[0] > maxx_i:
                break  # every later link starts right of seg_i's box
            if box_j[3] < miny_i or maxy_i < box_j[1]:
                continue  # x-ranges overlap by construction; check y only
            cx, cy, dx, dy = coords[j]
            if segments_cross_raw(ax, ay, bx, by, cx, cy, dx, dy):
                key_j = links[j][0]
                crossings_i.add(key_j)
                result[key_j].add(key_i)
    return result


def is_planar_embedding(links: Sequence[Tuple[LinkKey, Segment]]) -> bool:
    """Whether no two links properly cross (a plane embedding)."""
    crossings = compute_cross_links(links)
    return all(not others for others in crossings.values())


def crossing_pairs(
    links: Sequence[Tuple[LinkKey, Segment]],
) -> List[Tuple[LinkKey, LinkKey]]:
    """All unordered crossing pairs, each reported once."""
    crossings = compute_cross_links(links)
    pairs: List[Tuple[LinkKey, LinkKey]] = []
    seen: Set[frozenset] = set()
    for key, others in crossings.items():
        for other in others:
            pair = frozenset((key, other))
            if pair not in seen:
                seen.add(pair)
                pairs.append((key, other))
    return pairs
