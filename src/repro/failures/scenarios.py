"""Random failure-scenario generation.

§IV-A: *"the failure area is a circle randomly placed in the 2000 x 2000
area with a radius randomly selected between 100 and 300"*, and Fig. 11
sweeps the radius from 20 to 300 in increments of 20.  These generators
reproduce both settings, plus the multi-area variant used by the
extension examples and tests.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Tuple

from ..geometry import Circle, Point, UnionRegion
from ..topology import DEFAULT_AREA, Topology
from .model import FailureScenario

#: Radius range of the paper's main evaluation (§IV-A).
PAPER_RADIUS_RANGE: Tuple[float, float] = (100.0, 300.0)


def embedding_area(topo: Topology) -> float:
    """The side of the square the scenario centers should sample.

    Catalog and generated paper-scale topologies live inside the paper's
    2000 x 2000 map, so the default area is returned unchanged for them —
    pinned golden sweeps draw the exact same RNG sequence.  ``scale:``
    topologies grow their map with sqrt(n); there the real extent is used
    so failures land anywhere on the network, not in one corner.
    """
    extent = 0.0
    for node in topo.nodes():
        p = topo.position(node)
        if p.x > extent:
            extent = p.x
        if p.y > extent:
            extent = p.y
    return max(DEFAULT_AREA, extent)


def random_circle(
    rng: random.Random,
    radius_range: Tuple[float, float] = PAPER_RADIUS_RANGE,
    area: float = DEFAULT_AREA,
) -> Circle:
    """A circle with uniform random center and radius, as in §IV-A."""
    lo, hi = radius_range
    return Circle(
        Point(rng.uniform(0.0, area), rng.uniform(0.0, area)),
        rng.uniform(lo, hi),
    )


def circle_scenarios(
    topo: Topology,
    rng: random.Random,
    radius_range: Tuple[float, float] = PAPER_RADIUS_RANGE,
    area: Optional[float] = None,
    require_failures: bool = True,
) -> Iterator[FailureScenario]:
    """An endless stream of circular-failure scenarios over ``topo``.

    With ``require_failures`` (the default) scenarios that destroy nothing
    are skipped — they produce no failed routing path, hence no test case.
    ``area`` defaults to the topology's own map (:func:`embedding_area`).
    """
    if area is None:
        area = embedding_area(topo)
    while True:
        scenario = FailureScenario.from_region(topo, random_circle(rng, radius_range, area))
        if require_failures and not scenario.failed_links:
            continue
        yield scenario


def fixed_radius_scenarios(
    topo: Topology,
    rng: random.Random,
    radius: float,
    area: Optional[float] = None,
) -> Iterator[FailureScenario]:
    """Circular scenarios with a fixed radius (the Fig. 11 sweep)."""
    if area is None:
        area = embedding_area(topo)
    while True:
        center = Point(rng.uniform(0.0, area), rng.uniform(0.0, area))
        yield FailureScenario.from_region(topo, Circle(center, radius))


def multi_area_scenario(
    topo: Topology,
    rng: random.Random,
    n_areas: int = 2,
    radius_range: Tuple[float, float] = PAPER_RADIUS_RANGE,
    area: float = DEFAULT_AREA,
    min_separation: Optional[float] = None,
) -> FailureScenario:
    """Several simultaneous circular failure areas (§III-E extension).

    With ``min_separation``, circle centers are rejection-sampled until
    pairwise at least that far apart, so the areas are genuinely disjoint.
    """
    circles = []
    attempts = 0
    while len(circles) < n_areas:
        candidate = random_circle(rng, radius_range, area)
        attempts += 1
        if min_separation is not None and attempts < 1000:
            if any(
                candidate.center.distance_to(c.center) < min_separation
                for c in circles
            ):
                continue
        circles.append(candidate)
    return FailureScenario.from_region(topo, UnionRegion(circles))
