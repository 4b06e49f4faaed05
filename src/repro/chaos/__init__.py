"""Deterministic fault injection for degraded-mode experiments.

The idealized evaluation world of §II-A (instant perfect detection,
lossless recovery packets, a frozen failure set) is exactly what this
package lets experiments relax.  Compose a :class:`FaultPlan` out of the
four injector families, hand it to :class:`~repro.core.rtr.RTR` or
:class:`~repro.eval.runner.EvaluationRunner`, and the recovery pipeline
runs against per-hop packet loss, missed/late failure detection,
mid-walk secondary link failures, and truncated recovery headers — all
seeded, so every chaotic run is exactly reproducible.
"""

from .plan import FaultPlan, SecondaryFailure, SecondaryRepair
from .runtime import ChaosRuntime
from .degraded import DegradedLocalView
from .engine import ChaosForwardingEngine

__all__ = [
    "FaultPlan",
    "SecondaryFailure",
    "SecondaryRepair",
    "ChaosRuntime",
    "DegradedLocalView",
    "ChaosForwardingEngine",
]
