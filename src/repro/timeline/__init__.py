"""Time-evolving failure timelines (ROADMAP item 3, tentpole of PR 6).

The paper's evaluation freezes one failure region per convergence
window; this package models a large-scale outage as a *process*.  A
seeded :class:`TimelinePlan` expands (:func:`build_events`) into an
ordered stream of :class:`FailureEvent` / :class:`RepairEvent` /
:class:`FlapEvent` items — primary regions, cascading secondaries
triggered by proximity or load, per-link repair delays, and flap
oscillations.  :func:`build_windows` replays the stream into
:class:`ConvergenceWindow` objects: per-window ground-truth scenarios,
rolling IGP reconvergence, and lookahead
:class:`~repro.chaos.FaultPlan` chaos so packets mid-walk race repairs
and cascades.  Everything is bit-deterministic in the plan seed.

:mod:`repro.soak` drives these windows through the scheme registry and
traffic engine for hours of simulated time.
"""

from .plan import CASCADE_MODES, TimelinePlan
from .events import (
    FailureEvent,
    FlapEvent,
    RepairEvent,
    TimelineEvent,
    event_to_dict,
    events_digest,
)
from .builder import build_events
from .windows import HOP_SECONDS, ConvergenceWindow, build_windows

__all__ = [
    "CASCADE_MODES",
    "TimelinePlan",
    "TimelineEvent",
    "FailureEvent",
    "RepairEvent",
    "FlapEvent",
    "event_to_dict",
    "events_digest",
    "build_events",
    "HOP_SECONDS",
    "ConvergenceWindow",
    "build_windows",
]
