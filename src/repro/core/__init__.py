"""RTR — Reactive Two-phase Rerouting (the paper's contribution)."""

from .sweep import select_next_hop
from .constraints import CrossLinkState
from .phase1 import Phase1Result, run_phase1
from .exhaustive import run_exhaustive_phase1
from .phase2 import Phase2Engine, Phase2Result
from .rtr import APPROACH_NAME, RTR, RTRConfig
from .multiarea import MultiAreaResult, MultiAreaRTR

__all__ = [
    "select_next_hop",
    "CrossLinkState",
    "Phase1Result",
    "run_phase1",
    "run_exhaustive_phase1",
    "Phase2Engine",
    "Phase2Result",
    "APPROACH_NAME",
    "RTR",
    "RTRConfig",
    "MultiAreaResult",
    "MultiAreaRTR",
]
