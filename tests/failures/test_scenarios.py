"""Tests for repro.failures.scenarios (random generation, §IV-A)."""

import random

from repro.failures import (
    PAPER_RADIUS_RANGE,
    circle_scenarios,
    fixed_radius_scenarios,
    multi_area_scenario,
    random_circle,
)
from repro.geometry import Point, UnionRegion
from repro.topology import isp_catalog

from ..conftest import random_polygon


class TestRandomCircle:
    def test_radius_in_paper_range(self):
        rng = random.Random(1)
        for _ in range(100):
            c = random_circle(rng)
            assert PAPER_RADIUS_RANGE[0] <= c.radius <= PAPER_RADIUS_RANGE[1]

    def test_center_in_area(self):
        rng = random.Random(2)
        for _ in range(100):
            c = random_circle(rng, area=500)
            assert 0 <= c.center.x <= 500
            assert 0 <= c.center.y <= 500

    def test_deterministic(self):
        c1 = random_circle(random.Random(3))
        c2 = random_circle(random.Random(3))
        assert c1.center == c2.center and c1.radius == c2.radius


class TestRandomPolygon:
    def test_simple_star_shape(self):
        rng = random.Random(4)
        poly = random_polygon(rng, mean_radius=100, n_vertices=10)
        assert len(poly.vertices) == 10
        assert poly.area() > 0

    def test_contains_its_center_region(self):
        rng = random.Random(5)
        poly = random_polygon(rng, mean_radius=100)
        n = len(poly.vertices)
        center = Point(
            sum(p.x for p in poly.vertices) / n, sum(p.y for p in poly.vertices) / n
        )
        assert poly.contains(center)


class TestScenarioStreams:
    def test_circle_scenarios_always_fail_something(self):
        topo = isp_catalog.build("AS1239", seed=0)
        gen = circle_scenarios(topo, random.Random(6))
        for _ in range(10):
            scenario = next(gen)
            assert scenario.failed_links

    def test_fixed_radius_scenarios(self):
        topo = isp_catalog.build("AS1239", seed=0)
        gen = fixed_radius_scenarios(topo, random.Random(7), radius=150)
        scenario = next(gen)
        assert scenario.region is not None
        assert scenario.region.radius == 150  # type: ignore[union-attr]

    def test_larger_radius_fails_more(self):
        topo = isp_catalog.build("AS1239", seed=0)
        small = fixed_radius_scenarios(topo, random.Random(8), radius=20)
        large = fixed_radius_scenarios(topo, random.Random(8), radius=300)
        small_failures = sum(len(next(small).failed_links) for _ in range(30))
        large_failures = sum(len(next(large).failed_links) for _ in range(30))
        assert large_failures > small_failures


class TestMultiArea:
    def test_union_region(self):
        topo = isp_catalog.build("AS1239", seed=0)
        scenario = multi_area_scenario(topo, random.Random(9), n_areas=3)
        assert isinstance(scenario.region, UnionRegion)
        assert len(scenario.region.regions) == 3

    def test_min_separation_respected(self):
        topo = isp_catalog.build("AS1239", seed=0)
        scenario = multi_area_scenario(
            topo, random.Random(10), n_areas=2, min_separation=800
        )
        circles = scenario.region.regions  # type: ignore[union-attr]
        assert circles[0].center.distance_to(circles[1].center) >= 800
