"""Tests for repro.geometry.spatial (the box-query grid)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Segment, SpatialGrid

coords = st.floats(-50.0, 1050.0)
points = st.builds(Point, coords, coords)


far_points = st.builds(Point, st.floats(-5e3, 5e3), st.floats(-5e3, 5e3))


@settings(max_examples=60, deadline=None)
@given(
    pts=st.lists(points, min_size=1, max_size=30),
    far=st.lists(far_points, max_size=5),
    box_corner=far_points,
    box_size=st.tuples(st.floats(0.0, 3000.0), st.floats(0.0, 3000.0)),
)
def test_query_returns_everything_inside_the_box(pts, far, box_corner, box_size):
    # Segments join grid points and also run far beyond the points' extent.
    ends = pts + far
    segments = [Segment(ends[i], ends[(i * 7 + 3) % len(ends)]) for i in range(len(ends))]
    grid = SpatialGrid(list(enumerate(pts)), list(enumerate(segments)))
    box = (box_corner.x, box_corner.y, box_corner.x + box_size[0], box_corner.y + box_size[1])

    def inside(p: Point) -> bool:
        return box[0] <= p.x <= box[2] and box[1] <= p.y <= box[3]

    found_points, found_segments = grid.query([box])
    assert found_points == sorted(found_points)
    assert found_segments == sorted(found_segments)
    for i, p in enumerate(pts):
        if inside(p):
            assert i in found_points
    for i, s in enumerate(segments):
        samples = (s.a + (s.b - s.a) * (k / 64.0) for k in range(65))
        if any(inside(p) for p in samples):
            assert i in found_segments


def test_segment_leaving_the_map_is_found_beyond_it():
    # A link from a 10 x 10 lattice (6 x 6 cells) out through the top
    # border: it crosses two rows and six columns, and only its part above
    # the map reaches the east columns — in the clamped border row.
    lattice = [(i, Point(10.0 * (i % 10), 10.0 * (i // 10))) for i in range(100)]
    grid = SpatialGrid(lattice, [("out", Segment(Point(0.0, 80.0), Point(90.0, 2000.0)))])
    assert grid.query([(80.0, 1900.0, 90.0, 2000.0)])[1] == ["out"]


def test_unbounded_box_returns_every_key():
    grid = SpatialGrid(
        [("a", Point(0, 0)), ("b", Point(10, 10))],
        [("ab", Segment(Point(0, 0), Point(10, 10)))],
    )
    assert grid.query([(-math.inf, -math.inf, math.inf, math.inf)]) == (["a", "b"], ["ab"])
