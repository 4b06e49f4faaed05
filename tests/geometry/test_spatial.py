"""Tests for repro.geometry.spatial (the box-query grid).

The grid is built as arrays when numpy imports and by a Python loop
otherwise; the query tests run on whichever this platform builds.
``TestArrayParity`` is the numpy half and is skipped without numpy: it
builds each input twice, once with numpy hidden (``spatial._np = None``),
and asserts equal cells on the catalog, ``scale:2000``, ``grid:6x7`` and
hypothesis soups of vertical, horizontal and zero-length segments,
endpoints within ``slack`` of a cell border, and NaN or ±inf coordinates.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Segment, SpatialGrid, spatial
from repro.topology import isp_catalog, topology_from_spec

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


def python_grid(points, segments):
    saved, spatial._np = spatial._np, None
    try:
        return SpatialGrid(points, segments)
    finally:
        spatial._np = saved


def cells(grid):
    return (
        (grid.x0, grid.y0, grid.width, grid.cols, grid.rows, grid.slack),
        (grid._point_start, grid._point_items),
        grid.segment_cells(),
    )


def assert_same_cells(points, segments):
    arrays, loop = SpatialGrid(points, segments), python_grid(points, segments)
    assert cells(arrays) == cells(loop)
    for packed in cells(arrays)[1:]:
        assert all(type(part) is list for part in packed)
        assert all(type(v) is int for part in packed for v in part)


specials = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
map_points = st.builds(Point, st.floats(0.0, 100.0), st.floats(0.0, 100.0))
odd_points = st.builds(Point, st.one_of(st.floats(0.0, 100.0), specials), specials)


@st.composite
def soups(draw):
    """Points, then segments whose ends sit on, or within ``slack`` of, cell borders."""
    pts = draw(st.lists(map_points, min_size=1, max_size=30))
    pts += draw(st.lists(odd_points, max_size=2))
    probe = python_grid(list(enumerate(pts)), [])

    def coordinate(origin, count):
        kind = draw(st.sampled_from(["border", "border", "free", "special"]))
        if kind == "border":
            offset = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]))
            return origin + draw(st.integers(-1, count + 1)) * probe.width + offset * probe.slack
        if kind == "free":
            return draw(st.floats(origin - probe.width, origin + (count + 1) * probe.width))
        return draw(specials)

    segments = []
    for _ in range(draw(st.integers(0, 25))):
        shape = draw(st.sampled_from(["any", "vertical", "horizontal", "point"]))
        ax, ay = coordinate(probe.x0, probe.cols), coordinate(probe.y0, probe.rows)
        bx = ax if shape in ("vertical", "point") else coordinate(probe.x0, probe.cols)
        by = ay if shape in ("horizontal", "point") else coordinate(probe.y0, probe.rows)
        segments.append(Segment(Point(ax, ay), Point(bx, by)))
    return pts, segments


@pytest.mark.skipif(spatial._np is None, reason="the array grid requires numpy")
class TestArrayParity:
    @pytest.mark.parametrize("spec", ["scale:2000", "grid:6x7", *isp_catalog.names()])
    def test_topologies(self, spec):
        topo = topology_from_spec(spec, seed=0)
        assert_same_cells(
            [(node, topo.position(node)) for node in topo.nodes()],
            [(link, topo.segment(link)) for link in topo.links()],
        )

    @settings(max_examples=200, deadline=None)
    @given(soups())
    @example(  # a NaN end: min/max keep the finite one, np.minimum would not
        ([Point(10.0 * i, 7.0 * i % 50) for i in range(20)],
         [Segment(Point(150.0, 20.0), Point(math.nan, 30.0))])
    )
    @example(  # a subnormal span: the cell width divides to 0
        ([Point(0.0, 0.0)] * 4 + [Point(0.0, 5e-324)], [])
    )
    def test_soups(self, soup):
        pts, segments = soup
        assert_same_cells(list(enumerate(pts)), list(enumerate(segments)))
