"""Failure substrate: ground-truth scenarios and local detection."""

from .model import FailureScenario
from .detection import LocalView, find_initiator
from .scenarios import (
    PAPER_RADIUS_RANGE,
    circle_scenarios,
    fixed_radius_scenarios,
    multi_area_scenario,
    random_circle,
)

__all__ = [
    "FailureScenario",
    "LocalView",
    "find_initiator",
    "PAPER_RADIUS_RANGE",
    "circle_scenarios",
    "fixed_radius_scenarios",
    "multi_area_scenario",
    "random_circle",
]
