"""Computational-geometry substrate.

Everything RTR needs from the plane: points and counterclockwise angle
arithmetic for the right-hand sweeping rule, segments and proper-crossing
predicates for the ``cross_link`` constraints, failure-area regions, a
uniform grid that narrows region tests to nearby routers and links, and
precomputation of per-link crossing sets.
"""

from .point import EPSILON, TWO_PI, Point, ccw_angle, orientation
from .segment import Segment, segments_intersect
from .region import Circle, FailureRegion, Polygon, UnionRegion
from .planarity import CrossRows, compute_cross_links, crossing_pairs, is_planar_embedding
from .spatial import SpatialGrid

__all__ = [
    "EPSILON",
    "TWO_PI",
    "Point",
    "ccw_angle",
    "orientation",
    "Segment",
    "segments_intersect",
    "Circle",
    "FailureRegion",
    "Polygon",
    "UnionRegion",
    "SpatialGrid",
    "CrossRows",
    "compute_cross_links",
    "crossing_pairs",
    "is_planar_embedding",
]
