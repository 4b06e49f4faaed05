"""Test-only reference for ``compute_cross_links`` — the executable spec.

This is the pure-Python min-x sweep :func:`repro.geometry.compute_cross_links`
ran before it paired the links that share a spatial-grid cell, kept
verbatim: links sorted by the left edge of their bounding box, every
later link whose box overlaps tested with :func:`segments_cross_raw`.  It
uses no grid, so it cannot miss a candidate; ``test_planarity_np.py``
requires the production rows, read as sets by :func:`rows_as_map`, to
equal this map.

:func:`segments_cross` is the same proper-crossing predicate spelled on
``Point``/``Segment``; ``test_properties.py`` requires the raw-coordinate
production predicate to agree with it bit for bit.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence, Set, Tuple

from repro.geometry import EPSILON, CrossRows, Segment, orientation
from repro.geometry.planarity import segments_cross_raw


def segments_cross(s1: Segment, s2: Segment) -> bool:
    """Whether two segments *properly* cross (interior intersection).

    This is the predicate behind the paper's "link across another link":
    links that only touch at a shared router do not cross.  Collinear
    overlapping segments are treated as crossing since their interiors
    intersect.
    """
    if any(p.distance_to(q) <= EPSILON for p in (s1.a, s1.b) for q in (s2.a, s2.b)):
        return False  # a shared (numerically common) endpoint

    o1 = orientation(s1.a, s1.b, s2.a)
    o2 = orientation(s1.a, s1.b, s2.b)
    o3 = orientation(s2.a, s2.b, s1.a)
    o4 = orientation(s2.a, s2.b, s1.b)

    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True

    # An endpoint of one segment lying strictly inside the other also makes
    # the interiors intersect (e.g. a T-junction without a shared router).
    for p in (s2.a, s2.b):
        if s1.contains_point(p) and min(p.distance_to(s1.a), p.distance_to(s1.b)) > EPSILON:
            return True
    for p in (s1.a, s1.b):
        if s2.contains_point(p) and min(p.distance_to(s2.a), p.distance_to(s2.b)) > EPSILON:
            return True
    return False


def _bbox(segment: Segment) -> Tuple[float, float, float, float]:
    return (
        min(segment.a.x, segment.b.x),
        min(segment.a.y, segment.b.y),
        max(segment.a.x, segment.b.x),
        max(segment.a.y, segment.b.y),
    )


def rows_as_map(
    links: Sequence[Tuple[Hashable, Segment]], rows: CrossRows
) -> Dict[Hashable, Set[Hashable]]:
    """Crossing rows over positions as the key -> set-of-keys map.

    Asserts the row shape on the way: one :class:`CrossRows` whose ids sit
    in one buffer of 4-byte ints, one row per link, each ascending and
    distinct.
    """
    assert isinstance(rows, CrossRows) and rows.ids.itemsize == 4
    assert len(rows) == len(links)
    for row in rows:
        assert list(row) == sorted(set(row))
    return {links[i][0]: {links[j][0] for j in row} for i, row in enumerate(rows)}


def reference_cross_links(
    links: Sequence[Tuple[Hashable, Segment]],
) -> Dict[Hashable, Set[Hashable]]:
    """Map every link key to the set of link keys that properly cross it."""
    result: Dict[Hashable, Set[Hashable]] = {key: set() for key, _ in links}
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
