"""Line segments and crossing predicates.

Links of an embedded topology are straight segments between router
coordinates.  Two notions of "crossing" matter to RTR:

* **link/link crossing** — two segments whose *interiors* intersect.  This is
  what the paper's Constraints 1 and 2 (§III-C) forbid on the phase-1
  forwarding path, and what the per-link ``cross_link`` sets precompute.
  Segments that merely share an endpoint (links incident to a common router)
  do *not* cross.

* **link/region crossing** — a segment that intersects the failure area, in
  which case the link has failed (§II-A).  Implemented by the region classes
  in :mod:`repro.geometry.region` on top of the distance helpers here.
"""

from __future__ import annotations

from typing import NamedTuple

from .point import EPSILON, Point, orientation


class Segment(NamedTuple):
    """A closed straight segment between two endpoints."""

    a: Point
    b: Point

    def length(self) -> float:
        """Euclidean length of the segment."""
        return self.a.distance_to(self.b)

    def direction(self) -> Point:
        """The (unnormalised) vector from ``a`` to ``b``."""
        return self.b - self.a

    def contains_point(self, p: Point, tol: float = EPSILON) -> bool:
        """Whether ``p`` lies on the segment, within ``tol``."""
        return self.distance_to_point(p) <= tol

    def distance_to_point(self, p: Point) -> float:
        """Euclidean distance from ``p`` to the nearest point of the segment."""
        return p.distance_to(self.closest_point_to(p))

    def closest_point_to(self, p: Point) -> Point:
        """The point of the segment closest to ``p``."""
        d = self.direction()
        length_sq = d.dot(d)
        if length_sq <= EPSILON * EPSILON:
            return self.a
        t = (p - self.a).dot(d) / length_sq
        t = max(0.0, min(1.0, t))
        return self.a + d * t


def segments_intersect(s1: Segment, s2: Segment) -> bool:
    """Whether the two closed segments intersect at all (including endpoints).

    The *proper* crossing behind the ``cross_link`` sets, where shared
    endpoints never cross, is :func:`~repro.geometry.planarity.segments_cross_raw`.
    """
    o1 = orientation(s1.a, s1.b, s2.a)
    o2 = orientation(s1.a, s1.b, s2.b)
    o3 = orientation(s2.a, s2.b, s1.a)
    o4 = orientation(s2.a, s2.b, s1.b)

    if o1 != o2 and o3 != o4:
        return True
    # Tolerance cases: an endpoint of one segment lying on the other (within
    # EPSILON) intersects even when the orientation sign has not collapsed to
    # zero yet — this keeps the proper-crossing predicate
    # (``planarity.segments_cross_raw``) a strict subset of this one for
    # nearly-collinear configurations.
    if s1.contains_point(s2.a) or s1.contains_point(s2.b):
        return True
    if s2.contains_point(s1.a) or s2.contains_point(s1.b):
        return True
    return False
