"""Tests for repro.geometry.region (failure areas)."""

import math

import pytest

from repro.geometry import Circle, Point, Polygon, Segment, UnionRegion


def seg(x1, y1, x2, y2) -> Segment:
    return Segment(Point(x1, y1), Point(x2, y2))


class TestCircle:
    def test_contains_center(self):
        assert Circle(Point(0, 0), 10).contains(Point(0, 0))

    def test_contains_boundary(self):
        assert Circle(Point(0, 0), 10).contains(Point(10, 0))

    def test_excludes_outside(self):
        assert not Circle(Point(0, 0), 10).contains(Point(10.1, 0))

    def test_crosses_through_segment(self):
        # Segment passes straight through the disc.
        assert Circle(Point(0, 0), 5).crosses(seg(-10, 0, 10, 0))

    def test_crosses_chord(self):
        # Segment clips the disc without containing the center.
        assert Circle(Point(0, 0), 5).crosses(seg(-10, 3, 10, 3))

    def test_crosses_endpoint_inside(self):
        assert Circle(Point(0, 0), 5).crosses(seg(0, 0, 100, 100))

    def test_does_not_cross_far_segment(self):
        assert not Circle(Point(0, 0), 5).crosses(seg(-10, 6, 10, 6))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Circle(Point(0, 0), -1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Circle(Point(200, 200), math.nan)
        with pytest.raises(ValueError):
            Circle(Point(math.nan, 0), 50)
        with pytest.raises(ValueError):
            Circle(Point(0, 0), math.inf)

    def test_zero_radius_is_a_point(self):
        c = Circle(Point(3, 3), 0)
        assert c.contains(Point(3, 3))
        assert c.crosses(seg(0, 0, 6, 6))

    def test_bounding_box(self):
        [box] = Circle(Point(5, 5), 2).search_boxes()
        assert box == pytest.approx((3, 3, 7, 7))

    def test_area(self):
        assert math.isclose(Circle(Point(0, 0), 2).area(), 4 * math.pi)


class TestPolygon:
    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([Point(0, 0), Point(1, 1)])

    def test_non_finite_vertex_rejected(self):
        with pytest.raises(ValueError):
            Polygon([Point(0, 0), Point(math.nan, 1), Point(1, 0)])

    def test_contains_interior(self):
        square = Polygon([Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)])
        assert square.contains(Point(5, 5))

    def test_contains_boundary(self):
        square = Polygon([Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)])
        assert square.contains(Point(10, 5))

    def test_excludes_outside(self):
        square = Polygon([Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)])
        assert not square.contains(Point(15, 5))

    def test_concave_polygon(self):
        # An L-shape: the notch is outside.
        l_shape = Polygon(
            [
                Point(0, 0),
                Point(10, 0),
                Point(10, 4),
                Point(4, 4),
                Point(4, 10),
                Point(0, 10),
            ]
        )
        assert l_shape.contains(Point(2, 8))
        assert not l_shape.contains(Point(8, 8))

    def test_crosses_edge(self):
        square = Polygon([Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)])
        assert square.crosses(seg(-5, 5, 5, 5))

    def test_crosses_fully_inside(self):
        square = Polygon([Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)])
        assert square.crosses(seg(2, 2, 8, 8))

    def test_does_not_cross_outside(self):
        square = Polygon([Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)])
        assert not square.crosses(seg(20, 0, 20, 10))

    def test_area_square(self):
        square = Polygon([Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)])
        assert square.area() == 100.0

    def test_area_orientation_independent(self):
        cw = Polygon([Point(0, 0), Point(0, 10), Point(10, 10), Point(10, 0)])
        assert cw.area() == 100.0


class TestUnionRegion:
    def test_contains_either(self):
        union = UnionRegion([Circle(Point(0, 0), 5), Circle(Point(100, 0), 5)])
        assert union.contains(Point(0, 0))
        assert union.contains(Point(100, 0))
        assert not union.contains(Point(50, 0))

    def test_crosses_either(self):
        union = UnionRegion([Circle(Point(0, 0), 5), Circle(Point(100, 0), 5)])
        assert union.crosses(seg(98, -10, 98, 10))

    def test_flattens_nested_unions(self):
        inner = UnionRegion([Circle(Point(0, 0), 1), Circle(Point(10, 0), 1)])
        outer = UnionRegion([inner, Circle(Point(20, 0), 1)])
        assert len(outer.regions) == 3

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            UnionRegion([])

    def test_bounding_box_covers_all(self):
        union = UnionRegion([Circle(Point(0, 0), 5), Circle(Point(100, 0), 5)])
        boxes = union.search_boxes()
        assert boxes == [pytest.approx((-5, -5, 5, 5)), pytest.approx((95, -5, 105, 5))]
