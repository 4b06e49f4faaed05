"""Failure substrate: ground-truth scenarios and local detection."""

from .model import FailureScenario
from .detection import LocalView
from .scenarios import (
    PAPER_RADIUS_RANGE,
    circle_scenarios,
    fixed_radius_scenarios,
    multi_area_scenario,
    random_circle,
    random_polygon,
)

__all__ = [
    "FailureScenario",
    "LocalView",
    "PAPER_RADIUS_RANGE",
    "circle_scenarios",
    "fixed_radius_scenarios",
    "multi_area_scenario",
    "random_circle",
    "random_polygon",
]
