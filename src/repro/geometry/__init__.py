"""Computational-geometry substrate.

Everything RTR needs from the plane: points and counterclockwise angle
arithmetic for the right-hand sweeping rule, segments and proper-crossing
predicates for the ``cross_link`` constraints, failure-area regions, a
uniform grid that narrows region tests to nearby routers and links, and
precomputation of per-link crossing sets.
"""

from .point import EPSILON, TWO_PI, Point, ccw_angle, centroid, orientation
from .segment import Segment, intersection_point, segments_cross, segments_intersect
from .region import Circle, FailureRegion, HalfPlane, Polygon, UnionRegion
from .planarity import compute_cross_links, crossing_pairs, is_planar_embedding
from .spatial import SpatialGrid

__all__ = [
    "EPSILON",
    "TWO_PI",
    "Point",
    "ccw_angle",
    "centroid",
    "orientation",
    "Segment",
    "intersection_point",
    "segments_cross",
    "segments_intersect",
    "Circle",
    "FailureRegion",
    "HalfPlane",
    "Polygon",
    "UnionRegion",
    "SpatialGrid",
    "compute_cross_links",
    "crossing_pairs",
    "is_planar_embedding",
]
