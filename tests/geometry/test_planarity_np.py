"""The grid relation behind ``compute_cross_links`` equals the reference sweep.

``reference_cross_links.py`` tests every pair of links whose bounding
boxes overlap.  The production rows test only links that share a
``SpatialGrid`` cell — as arrays when numpy is importable, pair by pair
otherwise — so both, read as sets, must equal the reference on the
inputs where a cell filter can go wrong: the catalog, ``scale:2000``
(long backbone uplinks), ``grid:6x7`` (collinear lattice links), random
soups of mixed lengths, hypothesis soups of collinear overlaps,
T-touches, shared endpoints, zero-length segments and near-touches on
long links far from the origin, a touch within ``EPSILON`` across a cell
border, and a topology with retired link ids; both refuse NaN and
infinite coordinates.  ``TestVectorizedParity``
is the numpy half and is skipped without numpy; ``TestPythonParity`` runs
the same inputs with numpy hidden from the grid and the pairing.
``TestPairingsAgree`` requires the two pairings to return equal
``CrossRows`` on the catalog, ``scale:2000`` and the segment soups.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import UnknownLinkError
from repro.geometry import CrossRows, planarity, spatial
from repro.geometry.planarity import compute_cross_links
from repro.geometry.point import EPSILON, Point
from repro.geometry.segment import Segment
from repro.topology import Link, Topology, isp_catalog, topology_from_spec
from repro.topology.csr import cross_rows, region_index

from .reference_cross_links import reference_cross_links, rows_as_map

needs_numpy = pytest.mark.skipif(planarity._np is None, reason="vectorized pairing requires numpy")


def random_links(seed, n, long_every=7):
    """Short segments with a sprinkle of long diagonals."""
    rng = random.Random(seed)
    links = []
    for i in range(n):
        ax, ay = rng.uniform(0, 100), rng.uniform(0, 100)
        reach = 90 if i % long_every == 0 else 10
        links.append(
            (
                (i, i + 10_000),
                Segment(
                    Point(ax, ay),
                    Point(ax + rng.uniform(-reach, reach), ay + rng.uniform(-reach, reach)),
                ),
            )
        )
    return links


@lru_cache(maxsize=None)
def shared(spec: str, seed: int = 0) -> Topology:
    """One topology per (spec, seed) for the module; tests must not mutate it."""
    return topology_from_spec(spec, seed=seed)


def topology_links(topo: Topology):
    return [(link, topo.segment(link)) for link in topo.links()]


@lru_cache(maxsize=None)
def reference_of(spec: str, seed: int = 0):
    return reference_cross_links(topology_links(shared(spec, seed)))


def near_touch_topology() -> Topology:
    """Two links whose boxes overlap and whose gap (7e-10) straddles a cell border.

    Six points on the unit square give 0.5-wide cells.  Link ``a`` ends
    2e-10 left of the border x = 0.5.  Link ``b`` is nearly vertical: it
    passes 5e-10 right of the border at the height of that endpoint and
    crosses the border only in the next row up, so without padding the
    two links share no cell.
    """
    topo = Topology("near-touch")
    for node, (x, y) in enumerate(
        [(0.0, 0.0), (1.0, 1.0), (0.2, 0.3), (0.5 - 2e-10, 0.3),
         (0.5 + 7.5e-10, 0.1), (0.5 - 2.5e-10, 0.9)]
    ):
        topo.add_node(node, Point(x, y))
    topo.add_link(2, 3)
    topo.add_link(4, 5)
    return topo


lattice = st.builds(Point, st.integers(0, 6).map(float), st.integers(0, 6).map(float))
#: Near-touches: a point at ``t`` along a lattice link (its far end raised
#: by ``tilt``), moved ``offset`` EPSILONs off its line, starts a second
#: link to a lattice point.  On long links far from the origin they sit at
#: the near-line bound of ``_cross_mask``, where rounding grows with the
#: coordinates' magnitude.
near_touches = st.tuples(
    st.tuples(lattice, lattice),
    st.sampled_from([0.0, 1e-6, 1e-3]),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.999, 1.1, 1.5, 3.0, 1e3]),
    lattice,
)
soups = st.tuples(
    st.lists(st.tuples(lattice, lattice), max_size=25),
    st.sampled_from([1.0, 0.01, 137.0, 1e5]),
    st.lists(near_touches, max_size=4),
    st.sampled_from([(0.0, 0.0), (3e4, -1e4), (-2e6, 5e5)]),
)


def soup_links(soup):
    """The links of one ``soups`` draw, keyed by position."""
    ends, scale, touches, (ox, oy) = soup

    def at(p):
        return Point(ox + p.x * scale, oy + p.y * scale)

    segments = [Segment(at(p), at(q)) for p, q in ends]
    for (p, q), tilt, t, offset, far in touches:
        a, b = at(p), at(Point(q.x, q.y + tilt))
        d = b - a
        length = math.hypot(*d) or 1.0
        off_line = Point(-d.y, d.x) * (offset * EPSILON / length)
        segments += [Segment(a, b), Segment(a + d * t + off_line, at(far))]
    return list(enumerate(segments))


class _Parity:
    """Every parity input; a subclass says how the rows are computed."""

    def cross(self, links, grid=None):
        return rows_as_map(links, compute_cross_links(links, grid))

    def rows(self, topo):
        return cross_rows(topo)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mixed_lengths(self, seed):
        links = random_links(seed, 20 + seed * 25)
        assert self.cross(links) == reference_cross_links(links)

    def test_scale_topology_embedding(self):
        topo = shared("scale:2000")
        links = topology_links(topo)
        assert self.cross(links, region_index(topo)) == reference_of("scale:2000")
        assert self.cross(links) == reference_of("scale:2000")

    def test_grid_lattice(self):
        topo = shared("grid:6x7")
        assert self.cross(topology_links(topo), region_index(topo)) == reference_of("grid:6x7")

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", isp_catalog.names())
    def test_catalog(self, name, seed):
        topo = shared(name, seed)
        want = reference_of(name, seed)
        assert self.cross(topology_links(topo), region_index(topo)) == want
        if name == "AS3549":  # the densest crossing map: own grid too
            assert self.cross(topology_links(topo)) == want

    def test_touch_and_shared_endpoint_cases(self):
        links = [
            ((0, 1), Segment(Point(0, 0), Point(10, 0))),
            ((1, 2), Segment(Point(10, 0), Point(10, 10))),  # shares endpoint
            ((2, 3), Segment(Point(5, -5), Point(5, 5))),  # proper crossing
            ((3, 4), Segment(Point(2, 0), Point(8, 0))),  # collinear overlap
            ((4, 5), Segment(Point(3, 3), Point(7, 7))),  # disjoint
            ((5, 6), Segment(Point(0, -4), Point(4, 0))),  # T-touch on 0-1
        ]
        assert self.cross(links) == reference_cross_links(links)

    def test_degenerate_point_segment(self):
        links = [
            ((0, 1), Segment(Point(0, 0), Point(10, 0))),
            ((1, 2), Segment(Point(5, 0), Point(5, 0))),  # zero length, on 0-1
            ((2, 3), Segment(Point(5, 3), Point(5, 3))),  # zero length, off it
        ]
        assert self.cross(links) == reference_cross_links(links)

    def test_near_touch_across_a_cell_border(self):
        topo = near_touch_topology()
        grid = region_index(topo)
        a, b = Link.of(2, 3), Link.of(4, 5)
        end = topo.position(3)
        nearest = topo.segment(b).closest_point_to(end)
        assert end.x < grid.x0 + grid.width == 0.5 < nearest.x  # a cell border between
        assert 0 < topo.segment(b).distance_to_point(end) < EPSILON
        links = topology_links(topo)
        assert reference_cross_links(links) == {a: {b}, b: {a}}
        assert self.cross(links, grid) == {a: {b}, b: {a}}
        assert self.cross(links) == {a: {b}, b: {a}}

    def test_retired_link_ids(self):
        topo = shared("AS3549").copy()
        retired = {topo.link_index(link): link for link in list(topo.links())[::4]}
        for link in retired.values():
            topo.remove_link(link.u, link.v)
        rows = self.rows(topo)
        assert len(rows) == topo.csr().lid_size
        assert all(len(rows[lid]) == 0 for lid in retired)
        assert all(list(row) == sorted(set(row)) for row in rows)
        got = {
            topo.link_at(lid): {topo.link_at(other) for other in row}
            for lid, row in enumerate(rows)
            if lid not in retired
        }
        assert got == reference_cross_links(topology_links(topo))
        assert any(got.values())
        with pytest.raises(UnknownLinkError):
            topo.cross_links(next(iter(retired.values())))


@needs_numpy
class TestVectorizedParity(_Parity):
    def test_topology_map_is_cached_on_the_grid_relation(self):
        topo = shared("AS3549")
        rows = cross_rows(topo)
        assert rows_as_map(topology_links(topo), rows) == reference_of("AS3549")
        assert cross_rows(topo) is rows is topo.csr().cross_cache


@contextmanager
def numpy_hidden():
    """The grid and the pairing as on a platform without numpy."""
    saved = planarity._np, spatial._np
    planarity._np = spatial._np = None
    try:
        yield
    finally:
        planarity._np, spatial._np = saved


def without_numpy(links, grid=None):
    with numpy_hidden():
        return compute_cross_links(links, grid)


class TestPythonParity(_Parity):
    def cross(self, links, grid=None):
        return rows_as_map(links, without_numpy(links, grid))

    def rows(self, topo):
        with numpy_hidden():
            return cross_rows(topo)


BACKENDS = [
    pytest.param(compute_cross_links, id="numpy", marks=needs_numpy),
    pytest.param(without_numpy, id="python"),
]


@pytest.mark.parametrize("cross", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(soups)
@example(  # a touch that a near-line bound without the magnitude term skips
    ([], 1.0, [((Point(3.0, 3.0), Point(0.0, 3.0)), 1e-3, 0.5, 0.99, Point(1.0, 3.0))],
     (-2e6, 5e5))
)
def test_segment_soups(cross, soup):
    links = soup_links(soup)
    assert rows_as_map(links, cross(links)) == reference_cross_links(links)


@pytest.mark.parametrize("cross", BACKENDS)
@pytest.mark.parametrize(
    "bad, slot", [(math.nan, 0), (math.inf, 3), (-math.inf, 1)], ids=["nan", "inf", "-inf"]
)
def test_non_finite_coordinates_are_refused(cross, bad, slot):
    """A soup with one NaN or infinite coordinate gets no rows from either pairing."""
    links = random_links(slot, 30)
    key, segment = links[11]
    coords = [segment.a.x, segment.a.y, segment.b.x, segment.b.y]
    coords[slot] = bad
    links[11] = (key, Segment(Point(*coords[:2]), Point(*coords[2:])))
    with pytest.raises(ValueError, match="finite"):
        cross(links)


@needs_numpy
class TestPairingsAgree:
    """Both pairings return one equal ``CrossRows``, ids in a 4-byte buffer."""

    @pytest.mark.parametrize("name", isp_catalog.names())
    def test_catalog(self, name):
        topo = shared(name)
        links, grid = topology_links(topo), region_index(topo)
        assert compute_cross_links(links, grid) == without_numpy(links, grid)

    def test_scale_2000(self):
        topo = shared("scale:2000")
        links, grid = topology_links(topo), region_index(topo)
        rows = compute_cross_links(links, grid)
        assert rows == without_numpy(links, grid) == without_numpy(links)
        assert isinstance(rows, CrossRows)
        assert rows.ids.typecode == "i" and rows.ids.itemsize == 4
        assert len(rows.ids) == rows.bounds[-1] == 2 * 30172
        assert cross_rows(topo) == rows  # no retired ids: positions are link ids
        # Every row is a slice of that one buffer.
        assert [list(row) for row in rows] == [
            list(rows.ids[lo:hi]) for lo, hi in zip(rows.bounds, rows.bounds[1:])
        ]

    @settings(max_examples=40, deadline=None)
    @given(soups)
    def test_segment_soups(self, soup):
        links = soup_links(soup)
        assert compute_cross_links(links) == without_numpy(links)


class TestDispatch:
    def test_no_numpy_falls_back(self, monkeypatch):
        monkeypatch.setattr(planarity, "_np", None)
        monkeypatch.setattr(
            planarity, "_rows_numpy", lambda *a: pytest.fail("numpy pairing ran")
        )
        links = random_links(3, 30)
        assert rows_as_map(links, compute_cross_links(links)) == reference_cross_links(links)

    def test_grid_must_hold_the_links(self):
        topo = shared("grid:6x7")
        links = topology_links(topo)
        with pytest.raises(ValueError):
            compute_cross_links(links[1:], region_index(topo))

    def test_the_grid_alone_gives_the_same_rows(self):
        topo = shared("AS3549")
        grid = region_index(topo)
        assert compute_cross_links(grid=grid) == compute_cross_links(topology_links(topo), grid)
        with pytest.raises(ValueError):
            compute_cross_links()
