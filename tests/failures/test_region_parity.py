"""``from_region`` through the spatial grid equals a scan of every router and link.

``reference_region.py`` tests every router and link of the topology.
The production path tests only what the region's search boxes meet, so
it must produce the same ``failed_nodes`` and ``failed_links`` — and the
same iteration order of both — on the regions where a box filter can go
wrong: circles tangent to lattice nodes and links, zero radii, areas off
the map, concave, short-edged and map-wide polygons, unions, and a
topology mutated between queries.
"""

from __future__ import annotations

import math
from functools import lru_cache

import pytest

from repro.failures import FailureScenario
from repro.failures.model import region_index
from repro.geometry import Circle, Point, Polygon, UnionRegion
from repro.topology import Topology, topology_from_spec

from .reference_region import reference_from_region


def assert_same_scenario(topo: Topology, region) -> None:
    got = FailureScenario.from_region(topo, region)
    want = reference_from_region(topo, region)
    assert got.failed_nodes == want.failed_nodes, region
    assert got.failed_links == want.failed_links, region
    assert list(got.failed_nodes) == list(want.failed_nodes), region
    assert list(got.failed_links) == list(want.failed_links), region


@lru_cache(maxsize=None)
def shared(spec: str) -> Topology:
    """One topology per spec for the module; tests must not mutate it."""
    return topology_from_spec(spec, seed=0)


def test_lattice_circles():
    # Centers on every lattice node and link midpoint of grid:6x7 (spacing
    # 100, grid cells of 150), radii at multiples of half a spacing: nodes
    # and links sit exactly on the boundary, or EPSILON inside it, and some
    # of them on a cell edge — tangency is the common case on a lattice.
    topo = shared("grid:6x7")
    for cx in range(13):
        for cy in range(11):
            for radius in (0.0, 50.0, 100.0, 150.0):
                for nudge in (0.0, -1e-9):
                    region = Circle(Point(cx * 50.0, cy * 50.0), max(0.0, radius + nudge))
                    assert_same_scenario(topo, region)


SHAPES = [
    Circle(Point(250.0, 250.0), 0.0),  # zero radius between nodes
    Circle(Point(200.0, 300.0), 0.0),  # zero radius on a node
    Circle(Point(-5000.0, 300.0), 100.0),  # off the map
    Circle(Point(1e6, -1e6), 10.0),
    Circle(Point(-200.0, 250.0), 200.0),  # tangent to the west column
    Polygon(  # concave: an L whose notch holds nodes
        [Point(-10, -10), Point(410, -10), Point(410, 90), Point(90, 90),
         Point(90, 510), Point(-10, 510)]
    ),
    Polygon(  # a sliver with a 1e-7 edge next to a lattice link
        [Point(150.0, 100.0 + 1e-10), Point(150.0 + 1e-7, 100.0 + 1e-10),
         Point(150.0, 160.0)]
    ),
    Polygon([Point(1e5, 1e5), Point(1e5 + 1, 1e5), Point(1e5, 1e5 + 1)]),
    UnionRegion([Circle(Point(0.0, 0.0), 100.0), Circle(Point(600.0, 500.0), 50.0)]),
    UnionRegion(  # a circle and a band along the map's bottom edge, y <= 0
        [Circle(Point(300.0, 200.0), 10.0),
         Polygon([Point(-1e4, -1e4), Point(1e4, -1e4), Point(1e4, 0), Point(-1e4, 0)])]
    ),
    UnionRegion(
        [Circle(Point(100.0, 100.0), 1.0),
         Polygon([Point(300, 300), Point(420, 300), Point(420, 420)])]
    ),
]


@pytest.mark.parametrize("spec", ["grid:6x7", "AS7018"])
@pytest.mark.parametrize("region", SHAPES, ids=repr)
def test_shapes(spec, region):
    assert_same_scenario(shared(spec), region)


def test_scale_circles():
    # A 2,828-unit map, PoPs of ~30 access routers, long backbone uplinks.
    topo = shared("scale:2000")
    for i in range(12):
        center = Point(300.0 + 400.0 * (i % 4), 500.0 + 900.0 * (i // 4))
        assert_same_scenario(topo, Circle(center, 40.0 * i))


def test_long_links_found_along_their_path():
    # The longest links of a scale: graph are registered along their
    # path, not by bounding box; a tiny circle on one must still find it.
    topo = shared("scale:2000")
    for link in sorted(topo.links(), key=topo.euclidean_length)[-10:]:
        a, b = topo.position(link.u), topo.position(link.v)
        on_link = Point(a.x + 0.37 * (b.x - a.x), a.y + 0.37 * (b.y - a.y))
        for radius in (0.0, 1.0):
            region = Circle(on_link, radius)
            assert link in FailureScenario.from_region(topo, region).failed_links
            assert_same_scenario(topo, region)


def test_index_follows_mutations():
    topo = shared("grid:6x7").copy()
    near_diagonal = Circle(Point(50.0, 50.0), 1.0)
    assert_same_scenario(topo, near_diagonal)
    before = region_index(topo)
    topo.add_link(0, 8)  # the diagonal through (50, 50)
    assert region_index(topo) is not before
    assert_same_scenario(topo, near_diagonal)
    topo.remove_link(0, 8)
    assert_same_scenario(topo, near_diagonal)
    # A node beyond the old extent must be found once it is added.
    topo.add_node(99, Point(2000.0, 2000.0))
    topo.add_link(99, 41)
    for region in (Circle(Point(2000.0, 2000.0), 0.0), Circle(Point(1000.0, 1000.0), 300.0)):
        assert_same_scenario(topo, region)
    assert 99 in FailureScenario.from_region(topo, Circle(Point(2000.0, 2000.0), 0.0)).failed_nodes


def test_diagonal_lattice_tangency():
    # Links at 45 degrees on a lattice whose nodes are exactly r away.
    topo = Topology("diamond")
    for i, (x, y) in enumerate([(0, 0), (100, 100), (200, 0), (100, -100)]):
        topo.add_node(i, Point(float(x), float(y)))
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        topo.add_link(u, v)
    for radius in (50.0 * math.sqrt(2.0), 100.0, 0.0):
        assert_same_scenario(topo, Circle(Point(100.0, 0.0), radius))
