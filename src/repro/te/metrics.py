"""Congestion evaluation primitives: utilization CDFs and attribution.

Enhanced-MRC's argument (arXiv 1212.0311) is that a recovery scheme must
be judged by *post-recovery link load*, not just reachability.  This
module provides the load-side measurement kit consumed by
:mod:`repro.traffic.metrics`:

* fixed-bin **utilization histograms** — per-scenario counts over every
  topology link, elementwise-mergeable across scenarios and process
  shards (ints only, so serial == parallel aggregation is exact);
* **percentiles** read off the merged histogram (p50/p95/p99 of the
  utilization CDF; the exact maximum is tracked separately);
* **top-k overload attribution** — for each overloaded link, which
  recovery-rerouted OD demands piled onto it.

No imports from :mod:`repro.traffic` (that package imports this layer's
consumers); everything here speaks plain dicts, tuples, and the
:class:`~repro.topology.Link` type.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..topology import Link

#: Histogram bin width in utilization units (5 % of capacity per bin).
UTILIZATION_BIN_WIDTH = 0.05

#: Upper edges of the finite bins: (0.05, 0.10, ..., 3.00].  Everything
#: above the last edge lands in one overflow bin (the exact sweep maximum
#: is reported separately, so the tail needs no resolution).
UTILIZATION_BIN_EDGES: Tuple[float, ...] = tuple(
    round((i + 1) * UTILIZATION_BIN_WIDTH, 2) for i in range(60)
)

#: Histogram length: one count per finite bin plus the overflow bin.
HISTOGRAM_BINS = len(UTILIZATION_BIN_EDGES) + 1


def utilization_histogram(load_map) -> Tuple[int, ...]:
    """Bin every topology link's utilization (idle links count in bin 0).

    ``load_map`` is a :class:`~repro.traffic.capacity.LinkLoadMap` (duck
    typed: needs ``.utilizations()``, one value per topology link).  Bin
    ``i`` covers the half-open interval ``[i·w, (i+1)·w)``; the final bin
    absorbs everything at or above the last edge.
    """
    counts = [0] * HISTOGRAM_BINS
    nbins = len(UTILIZATION_BIN_EDGES)
    width = UTILIZATION_BIN_WIDTH
    for utilization in load_map.utilizations():
        index = int(utilization / width)
        counts[index if index < nbins else nbins] += 1
    return tuple(counts)


def merge_histograms(histograms: Iterable[Sequence[int]]) -> Tuple[int, ...]:
    """Elementwise sum; empty inputs (records predating the field) skip."""
    total = [0] * HISTOGRAM_BINS
    for hist in histograms:
        if not hist:
            continue
        for i, count in enumerate(hist):
            total[i] += count
    return tuple(total)


def utilization_percentile(histogram: Sequence[int], q: float) -> float:
    """The q-quantile utilization read off a (merged) histogram.

    Returns the upper edge of the first bin whose cumulative link count
    reaches ``q`` of the total — a conservative (rounded-up) quantile.
    The overflow bin reports the last finite edge; callers pair this with
    the exact tracked maximum for the tail.  Empty histograms yield 0.0.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    total = sum(histogram)
    if total == 0:
        return 0.0
    need = q * total
    cumulative = 0
    for i, count in enumerate(histogram):
        cumulative += count
        if cumulative >= need:
            if i < len(UTILIZATION_BIN_EDGES):
                return UTILIZATION_BIN_EDGES[i]
            return UTILIZATION_BIN_EDGES[-1]
    return UTILIZATION_BIN_EDGES[-1]  # pragma: no cover - cumulative == total


def congestion_free(overloaded_links: int) -> bool:
    """Whether a scenario recovered without overloading any link."""
    return overloaded_links == 0


#: Attribution entry: (link u, link v, utilization,
#:                     ((source, destination, demand), ... top-k)).
AttributionEntry = Tuple[int, int, float, Tuple[Tuple[int, int, float], ...]]


def overload_attribution(
    load_map,
    contributions: Dict[Link, Dict[Tuple[int, int], float]],
    threshold: float = 1.0,
    top_links: int = 3,
    top_demands: int = 3,
) -> Tuple[AttributionEntry, ...]:
    """Who overloaded what: the top rerouted demands per overloaded link.

    ``contributions`` maps each link to the recovery-attributed demand
    per OD pair (the engine records them while weighting disrupted
    groups; intact background load is in the utilization but is not a
    rerouting decision, so it is not attributed).  Plain nested tuples —
    records carrying them cross process boundaries.
    """
    entries: List[AttributionEntry] = []
    for link, utilization in load_map.overloaded_links(threshold)[:top_links]:
        per_pair = contributions.get(link, {})
        ranked = sorted(per_pair.items(), key=lambda kv: (-kv[1], kv[0]))
        entries.append(
            (
                link.u,
                link.v,
                utilization,
                tuple(
                    (src, dst, demand)
                    for (src, dst), demand in ranked[:top_demands]
                ),
            )
        )
    return tuple(entries)


__all__ = [
    "UTILIZATION_BIN_WIDTH",
    "UTILIZATION_BIN_EDGES",
    "HISTOGRAM_BINS",
    "AttributionEntry",
    "congestion_free",
    "merge_histograms",
    "overload_attribution",
    "utilization_histogram",
    "utilization_percentile",
]
