"""Deterministic fault injection for degraded-mode experiments.

The idealized evaluation world of §II-A (instant perfect detection,
lossless recovery packets, a frozen failure set) is exactly what this
package lets experiments relax.  Compose a :class:`FaultPlan` out of the
four injector families and pass it at construction — to a protocol
(:class:`~repro.core.rtr.RTR`, :class:`~repro.schemes.fcp.FCP`, ...), to
:func:`~repro.schemes.create_scheme`, or to
:class:`~repro.eval.runner.EvaluationRunner`.  Every walking protocol
builds its view and engine with :func:`forwarding_world`, so the same
plan runs each of them against per-hop packet loss, missed/late failure
detection, mid-walk secondary link failures, and truncated recovery
headers — all seeded, so every chaotic run is exactly reproducible.
"""

from .plan import FaultPlan, SecondaryFailure
from .runtime import ChaosRuntime
from .degraded import DegradedLocalView
from .engine import ChaosForwardingEngine
from .world import forwarding_world

__all__ = [
    "FaultPlan",
    "SecondaryFailure",
    "ChaosRuntime",
    "DegradedLocalView",
    "ChaosForwardingEngine",
    "forwarding_world",
]
