"""``repro.te`` — the traffic-engineering layer (congestion-aware recovery).

The paper's objective is reachability: recover as many disrupted pairs
as possible.  ``BENCH_traffic.json`` shows what that objective ignores —
recovered paths pile demand onto surviving links (3.11× max utilization
on AS7018).  This subsystem makes recovery *congestion-aware*:

* :mod:`repro.te.penalty` — an integer-quantized load-penalized link
  metric that composes with both shortest-path kernel backends;
  RTR phase-2 selection uses it when instantiated with a live
  ``LinkPenalty`` (a congestion-aware ``TrafficEngine`` window; strictly
  off by default — all pinned golden sweeps stay byte-identical);
* :mod:`repro.schemes.r3` (not part of this package) — the R3-style
  protection-routing scheme registered as ``r3``, which plans its
  detours in the penalized metric above;
* :mod:`repro.te.metrics` — the congestion evaluation layer:
  post-recovery utilization histograms/CDF (p50/p95/p99/max),
  congestion-free-recovery rate, top-k overload attribution.

See DESIGN.md §14 for the architecture and EXPERIMENTS.md for the
3.11× → ≤1.5× walkthrough.
"""

from .penalty import (
    DEFAULT_PENALTY_ALPHA,
    DEFAULT_PENALTY_EXPONENT,
    DEFAULT_UTILIZATION_CLIP,
    PENALTY_QUANT,
    LinkPenalty,
    recost_path,
)
from .metrics import (
    UTILIZATION_BIN_EDGES,
    merge_histograms,
    overload_attribution,
    utilization_percentile,
)

__all__ = [
    "DEFAULT_PENALTY_ALPHA",
    "DEFAULT_PENALTY_EXPONENT",
    "DEFAULT_UTILIZATION_CLIP",
    "PENALTY_QUANT",
    "LinkPenalty",
    "recost_path",
    "UTILIZATION_BIN_EDGES",
    "merge_histograms",
    "overload_attribution",
    "utilization_percentile",
]
