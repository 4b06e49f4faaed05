"""Tests for repro.geometry.segment and the proper-crossing predicate."""

import math

from repro.geometry import Point, Segment, segments_intersect
from repro.geometry.planarity import segments_cross_raw


def seg(x1, y1, x2, y2) -> Segment:
    return Segment(Point(x1, y1), Point(x2, y2))


def segments_cross(s1: Segment, s2: Segment) -> bool:
    return segments_cross_raw(*s1.a, *s1.b, *s2.a, *s2.b)


class TestSegmentBasics:
    def test_length(self):
        assert seg(0, 0, 3, 4).length() == 5.0

    def test_contains_endpoint(self):
        s = seg(0, 0, 10, 0)
        assert s.contains_point(Point(0, 0))
        assert s.contains_point(Point(10, 0))

    def test_contains_interior(self):
        assert seg(0, 0, 10, 10).contains_point(Point(5, 5))

    def test_does_not_contain_off_segment(self):
        assert not seg(0, 0, 10, 0).contains_point(Point(5, 1))

    def test_does_not_contain_beyond_endpoint(self):
        assert not seg(0, 0, 10, 0).contains_point(Point(11, 0))

    def test_distance_to_point_perpendicular(self):
        assert seg(0, 0, 10, 0).distance_to_point(Point(5, 3)) == 3.0

    def test_distance_to_point_beyond_end(self):
        assert math.isclose(seg(0, 0, 10, 0).distance_to_point(Point(13, 4)), 5.0)

    def test_closest_point_clamps(self):
        assert seg(0, 0, 10, 0).closest_point_to(Point(-5, 0)) == Point(0, 0)

    def test_degenerate_segment(self):
        s = seg(1, 1, 1, 1)
        assert s.distance_to_point(Point(4, 5)) == 5.0


class TestIntersect:
    def test_plain_crossing(self):
        assert segments_intersect(seg(0, 0, 10, 10), seg(0, 10, 10, 0))

    def test_disjoint(self):
        assert not segments_intersect(seg(0, 0, 1, 1), seg(5, 5, 6, 6))

    def test_shared_endpoint_intersects(self):
        assert segments_intersect(seg(0, 0, 5, 5), seg(5, 5, 10, 0))

    def test_t_junction_intersects(self):
        assert segments_intersect(seg(0, 0, 10, 0), seg(5, -5, 5, 0))

    def test_collinear_overlap(self):
        assert segments_intersect(seg(0, 0, 10, 0), seg(5, 0, 15, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect(seg(0, 0, 4, 0), seg(5, 0, 9, 0))


class TestCross:
    """segments_cross_raw is the paper's 'link across another link'."""

    def test_proper_crossing(self):
        assert segments_cross(seg(0, 0, 10, 10), seg(0, 10, 10, 0))

    def test_shared_endpoint_is_not_crossing(self):
        # Two links at a common router never "cross".
        assert not segments_cross(seg(0, 0, 5, 5), seg(5, 5, 10, 0))

    def test_disjoint_not_crossing(self):
        assert not segments_cross(seg(0, 0, 1, 0), seg(0, 1, 1, 1))

    def test_touching_interiors_cross(self):
        # A T-junction without a shared router: interiors intersect.
        assert segments_cross(seg(0, 0, 10, 0), seg(5, -5, 5, 0))

    def test_collinear_overlap_crosses(self):
        assert segments_cross(seg(0, 0, 10, 0), seg(5, 0, 15, 0))

    def test_paper_example_e5_12_crosses_e6_11(self):
        # The crossing Constraint 1 relies on (Fig. 4).
        e5_12 = seg(180, 330, 520, 140)
        e6_11 = seg(230, 240, 420, 230)
        assert segments_cross(e5_12, e6_11)

    def test_symmetry(self):
        a, b = seg(0, 0, 10, 10), seg(0, 10, 10, 0)
        assert segments_cross(a, b) == segments_cross(b, a)

