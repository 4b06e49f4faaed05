"""Evaluation harness: test cases, metrics, and per-figure experiments."""

from .cases import (
    CaseSet,
    TestCase,
    count_failed_routing_paths,
    enumerate_scenario_cases,
    generate_cases,
)
from .cdf import cdf_points, summarize
from .metrics import (
    CaseRecord,
    IrrecoverableSummary,
    RecoverableSummary,
    ResilienceSummary,
    phase1_duration_values,
    savings_ratio,
    sp_computation_values,
    stretch_values,
    summarize_irrecoverable,
    summarize_recoverable,
    summarize_resilience,
    wasted_transmission_values,
)
from .runner import ALL_APPROACHES, EvaluationRunner
from .statistics import wilson_interval
from . import experiments
from . import motivation
from . import parallel
from . import report
from . import sweeps

__all__ = [
    "CaseSet",
    "TestCase",
    "count_failed_routing_paths",
    "enumerate_scenario_cases",
    "generate_cases",
    "cdf_points",
    "summarize",
    "CaseRecord",
    "IrrecoverableSummary",
    "RecoverableSummary",
    "ResilienceSummary",
    "phase1_duration_values",
    "savings_ratio",
    "sp_computation_values",
    "stretch_values",
    "summarize_irrecoverable",
    "summarize_recoverable",
    "summarize_resilience",
    "wasted_transmission_values",
    "ALL_APPROACHES",
    "EvaluationRunner",
    "wilson_interval",
    "experiments",
    "motivation",
    "parallel",
    "report",
    "sweeps",
]
