"""Tests for repro.geometry.point."""

import math

from repro.geometry import EPSILON, TWO_PI, Point, ccw_angle, orientation


class TestPointArithmetic:
    def test_addition(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)

    def test_subtraction(self):
        assert Point(5, 7) - Point(2, 3) == Point(3, 4)

    def test_scalar_multiplication(self):
        assert Point(2, -3) * 2.0 == Point(4, -6)

    def test_right_scalar_multiplication(self):
        assert 0.5 * Point(4, 6) == Point(2, 3)

    def test_negation(self):
        assert -Point(1, -2) == Point(-1, 2)

    def test_dot_product(self):
        assert Point(1, 2).dot(Point(3, 4)) == 11

    def test_cross_product_sign(self):
        assert Point(1, 0).cross(Point(0, 1)) == 1.0
        assert Point(0, 1).cross(Point(1, 0)) == -1.0

    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0


class TestAngles:
    def test_angle_east_is_zero(self):
        assert Point(1, 0).angle() == 0.0

    def test_angle_north(self):
        assert math.isclose(Point(0, 1).angle(), math.pi / 2)

    def test_angle_wraps_to_positive(self):
        # atan2 would give a negative angle for south; angle() wraps.
        assert math.isclose(Point(0, -1).angle(), 3 * math.pi / 2)

    def test_ccw_angle_quarter_turn(self):
        assert math.isclose(ccw_angle(Point(1, 0), Point(0, 1)), math.pi / 2)

    def test_ccw_angle_three_quarter_turn(self):
        # Clockwise neighbors are a long way around counterclockwise.
        assert math.isclose(ccw_angle(Point(1, 0), Point(0, -1)), 3 * math.pi / 2)

    def test_ccw_angle_same_direction_is_full_turn(self):
        # The reference direction sorts last: the sweeping rule falls back
        # to the previous hop only when nothing else is available.
        assert ccw_angle(Point(1, 0), Point(2, 0)) == TWO_PI

    def test_ccw_angle_always_positive(self):
        for dx, dy in [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1)]:
            angle = ccw_angle(Point(1, 0.5), Point(dx, dy))
            assert 0 < angle <= TWO_PI


class TestOrientation:
    def test_counterclockwise(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(1, 1)) == 1

    def test_clockwise(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(1, -1)) == -1

    def test_collinear(self):
        assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) == 0

    def test_near_collinear_uses_epsilon(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(2, EPSILON / 10)) == 0

