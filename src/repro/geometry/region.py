"""Failure-area regions.

The paper models a large-scale failure as a *continuous area* in the plane:
routers inside it and links across it all fail (§II-A).  The simulation of
§IV uses circles of random radius, but the design explicitly makes no
assumption about the area's shape or location, so this module provides a
small region algebra:

* :class:`Circle` — the shape used by the paper's evaluation,
* :class:`Polygon` — arbitrary simple polygons (convex or not),
* :class:`UnionRegion` — unions, for multiple simultaneous failure areas.

Every region answers two questions:  does it contain a point (a router has
failed), and does a segment cross it (a link has failed).  Its search boxes
bound where either answer can be yes, so a topology only tests the routers
and links near the area (:mod:`repro.geometry.spatial`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterable, List, Sequence, Tuple

from .point import EPSILON, Point
from .segment import Segment, segments_intersect


class FailureRegion(ABC):
    """Abstract continuous area of the plane."""

    @abstractmethod
    def contains(self, p: Point) -> bool:
        """Whether point ``p`` lies inside the region (boundary counts)."""

    @abstractmethod
    def crosses(self, segment: Segment) -> bool:
        """Whether any part of ``segment`` lies inside the region."""

    def search_boxes(self) -> List[Tuple[float, float, float, float]]:
        """Boxes outside which neither ``contains`` nor ``crosses`` holds.

        Padded by the predicates' own tolerance.  The default is the
        infinite box — every router and link gets tested — which is right
        for unbounded regions and safe for any subclass.
        """
        inf = math.inf
        return [(-inf, -inf, inf, inf)]


class Circle(FailureRegion):
    """A closed disc — the failure-area shape of the paper's evaluation.

    A segment crosses the disc iff its closest point to the center is within
    the radius; a segment with an endpoint inside trivially satisfies this.
    """

    def __init__(self, center: Point, radius: float) -> None:
        if not _finite(center):
            raise ValueError(f"circle center must be finite, got {center!r}")
        if not math.isfinite(radius):
            raise ValueError(f"radius must be finite, got {radius}")
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        self.center = center
        self.radius = float(radius)

    def __repr__(self) -> str:
        return f"Circle(center={self.center!r}, radius={self.radius})"

    def contains(self, p: Point) -> bool:
        return self.center.distance_to(p) <= self.radius + EPSILON

    def crosses(self, segment: Segment) -> bool:
        return segment.distance_to_point(self.center) <= self.radius + EPSILON

    def search_boxes(self) -> List[Tuple[float, float, float, float]]:
        # Both predicates accept a distance up to r + EPSILON, and a link
        # shorter than EPSILON is measured from one endpoint: 2 * EPSILON.
        cx, cy, r = self.center.x, self.center.y, self.radius + 2 * EPSILON
        return [(cx - r, cy - r, cx + r, cy + r)]

    def area(self) -> float:
        """Area of the disc."""
        return math.pi * self.radius * self.radius


class Polygon(FailureRegion):
    """A simple (non self-intersecting) polygon, convex or not.

    Keeps the infinite search box: ``crosses`` thresholds cross products,
    so its tolerance zone grows with 1 / edge length and 1 / link length,
    and no fixed pad of the bounding box covers it.
    """

    def __init__(self, vertices: Sequence[Point]) -> None:
        if len(vertices) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if not _finite(*vertices):
            raise ValueError("polygon vertices must be finite")
        self.vertices: List[Point] = list(vertices)

    def __repr__(self) -> str:
        return f"Polygon({len(self.vertices)} vertices)"

    def edges(self) -> List[Segment]:
        """The boundary segments, in vertex order."""
        n = len(self.vertices)
        return [Segment(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def contains(self, p: Point) -> bool:
        # Boundary counts as inside.
        for edge in self.edges():
            if edge.contains_point(p):
                return True
        # Ray casting toward +x.
        inside = False
        n = len(self.vertices)
        for i in range(n):
            a, b = self.vertices[i], self.vertices[(i + 1) % n]
            if (a.y > p.y) != (b.y > p.y):
                x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                if x_cross > p.x:
                    inside = not inside
        return inside

    def crosses(self, segment: Segment) -> bool:
        if self.contains(segment.a) or self.contains(segment.b):
            return True
        return any(segments_intersect(segment, edge) for edge in self.edges())

    def area(self) -> float:
        """Unsigned area via the shoelace formula."""
        total = 0.0
        n = len(self.vertices)
        for i in range(n):
            a, b = self.vertices[i], self.vertices[(i + 1) % n]
            total += a.cross(b)
        return abs(total) / 2.0


class UnionRegion(FailureRegion):
    """Union of several regions — multiple simultaneous failure areas."""

    def __init__(self, regions: Iterable[FailureRegion]) -> None:
        self.regions: List[FailureRegion] = []
        for region in regions:
            # Flatten nested unions so iteration stays shallow.
            if isinstance(region, UnionRegion):
                self.regions.extend(region.regions)
            else:
                self.regions.append(region)
        if not self.regions:
            raise ValueError("a union needs at least one region")

    def __repr__(self) -> str:
        return f"UnionRegion({len(self.regions)} regions)"

    def contains(self, p: Point) -> bool:
        return any(r.contains(p) for r in self.regions)

    def crosses(self, segment: Segment) -> bool:
        return any(r.crosses(segment) for r in self.regions)

    def search_boxes(self) -> List[Tuple[float, float, float, float]]:
        return [box for r in self.regions for box in r.search_boxes()]


def _finite(*points: Point) -> bool:
    """Whether every coordinate of ``points`` is a finite float."""
    return all(math.isfinite(v) for p in points for v in p)
