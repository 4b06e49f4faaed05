"""2-D points and direction helpers.

The paper assumes every router knows the (approximate) coordinates of all
routers in the AS (§II-A).  RTR's first phase steers packets with a
right-hand rule that rotates a *sweeping line* counterclockwise around the
current node (§III-B), so the geometry layer must provide exact-enough
angle arithmetic for counterclockwise ordering of neighbors.

Coordinates are plain floats; the paper explicitly does not require highly
accurate coordinates, so float arithmetic with a small epsilon is adequate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

#: Tolerance used by all geometric predicates in this package.  The paper's
#: simulation area is 2000 x 2000, so 1e-9 is far below any meaningful
#: coordinate difference.
EPSILON = 1e-9

TWO_PI = 2.0 * math.pi


class Point(NamedTuple):
    """An immutable point (or free vector) in the plane."""

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":  # type: ignore[override]
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":  # type: ignore[override]
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def dot(self, other: "Point") -> float:
        """Dot product with ``other`` treated as a vector."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z-component of the cross product (positive when ``other`` is CCW)."""
        return self.x * other.y - self.y * other.x

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def angle(self) -> float:
        """Direction of this vector in radians, in ``[0, 2*pi)``."""
        return math.atan2(self.y, self.x) % TWO_PI


def orientation(a: Point, b: Point, c: Point) -> int:
    """Orientation of the ordered triple ``(a, b, c)``.

    Returns ``+1`` when the triple turns counterclockwise, ``-1`` when it
    turns clockwise, and ``0`` when the three points are (numerically)
    collinear.
    """
    cross = (b - a).cross(c - a)
    if cross > EPSILON:
        return 1
    if cross < -EPSILON:
        return -1
    return 0


def ccw_angle(reference: Point, target: Point) -> float:
    """Counterclockwise angle from vector ``reference`` to vector ``target``.

    The result is in ``(0, 2*pi]``: a target pointing exactly along the
    reference maps to ``2*pi`` rather than ``0``.  RTR's sweeping rule rotates
    the sweep line *away* from the reference link, so the reference direction
    itself must sort last — this is what makes a packet fall back to its
    previous hop only when no other live neighbor exists (the tree-branch
    double-traversal behaviour of §IV-B).
    """
    angle = (target.angle() - reference.angle()) % TWO_PI
    if angle <= EPSILON:
        return TWO_PI
    return angle
