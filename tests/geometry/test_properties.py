"""Property-based tests of the geometry substrate (hypothesis)."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    Circle,
    Point,
    Segment,
    ccw_angle,
    segments_cross,
    segments_intersect,
)
from repro.geometry.planarity import segments_cross_raw

coords = st.floats(
    min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coords, coords)


def distinct_segment(p: Point, q: Point) -> bool:
    return p.distance_to(q) > 1e-6


segments = st.tuples(points, points).filter(lambda t: distinct_segment(*t)).map(
    lambda t: Segment(*t)
)


class TestSegmentProperties:
    @given(segments, segments)
    def test_cross_is_symmetric(self, s1, s2):
        assert segments_cross(s1, s2) == segments_cross(s2, s1)

    @given(segments, segments)
    def test_cross_implies_intersect(self, s1, s2):
        if segments_cross(s1, s2):
            assert segments_intersect(s1, s2)

    @given(segments)
    def test_segment_never_crosses_itself(self, s):
        assert not segments_cross(s, s)

    @given(segments, points)
    def test_closest_point_is_on_segment(self, s, p):
        closest = s.closest_point_to(p)
        assert s.contains_point(closest, tol=1e-6)

    @given(segments, points)
    def test_distance_no_better_than_endpoints(self, s, p):
        d = s.distance_to_point(p)
        assert d <= p.distance_to(s.a) + 1e-9
        assert d <= p.distance_to(s.b) + 1e-9

    @given(segments, segments)
    def test_raw_cross_matches_segment_cross(self, s1, s2):
        # The allocation-free predicate used by compute_cross_links must be
        # the same function, bit for bit, as the Point/Segment original.
        assert segments_cross_raw(
            s1.a.x, s1.a.y, s1.b.x, s1.b.y, s2.a.x, s2.a.y, s2.b.x, s2.b.y
        ) == segments_cross(s1, s2)


class TestAngleProperties:
    @given(points, points)
    def test_ccw_angle_range(self, a, b):
        if a.norm() < 1e-6 or b.norm() < 1e-6:
            return
        angle = ccw_angle(a, b)
        assert 0 < angle <= 2 * math.pi + 1e-9

    @given(points, points)
    def test_ccw_angles_complementary(self, a, b):
        if a.norm() < 1e-6 or b.norm() < 1e-6:
            return
        forward = ccw_angle(a, b)
        backward = ccw_angle(b, a)
        total = (forward + backward) % (2 * math.pi)
        # Either they sum to a full turn, or both are full turns (parallel).
        assert total < 1e-6 or abs(total - 2 * math.pi) < 1e-6


class TestCircleProperties:
    @given(points, st.floats(min_value=0.1, max_value=500), segments)
    def test_endpoint_inside_implies_crossing(self, center, radius, s):
        circle = Circle(center, radius)
        if circle.contains(s.a) or circle.contains(s.b):
            assert circle.crosses(s)

    @given(points, st.floats(min_value=0.1, max_value=500), segments)
    def test_crossing_consistent_with_distance(self, center, radius, s):
        circle = Circle(center, radius)
        assert circle.crosses(s) == (
            s.distance_to_point(center) <= radius + 1e-9
        )
