"""Test-only reference load statistics — the spec of ``LinkLoadMap.summary``.

These are the separate scans :class:`~repro.traffic.capacity.LinkLoadMap`
ran before it computed every statistic in one pass: the utilization list,
its histogram and maximum, the overloaded links and the overload demand,
each a full pass of its own over the map's links.  They read only the
map's per-lid loads and the topology's per-lid capacities.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.te.metrics import HISTOGRAM_BINS, UTILIZATION_BIN_EDGES, UTILIZATION_BIN_WIDTH
from repro.topology import Link
from repro.traffic.capacity import LinkLoadMap


def _rows(loads: LinkLoadMap):
    return zip(loads.topo.csr().links, loads.lid_loads(), loads.topo.lid_capacities())


def utilizations(loads: LinkLoadMap) -> List[float]:
    """The utilization of every topology link, in lid order (idle: 0.0)."""
    return [
        load / capacity if load and capacity else 0.0
        for link, load, capacity in _rows(loads)
        if link is not None
    ]


def utilization_histogram(loads: LinkLoadMap) -> Tuple[int, ...]:
    """Bin every topology link's utilization (idle links count in bin 0)."""
    counts = [0] * HISTOGRAM_BINS
    nbins = len(UTILIZATION_BIN_EDGES)
    for utilization in utilizations(loads):
        index = int(utilization / UTILIZATION_BIN_WIDTH)
        counts[index if index < nbins else nbins] += 1
    return tuple(counts)


def max_utilization(loads: LinkLoadMap) -> float:
    return max(utilizations(loads), default=0.0)


def overloaded_links(loads: LinkLoadMap, threshold: float = 1.0) -> List[Tuple[Link, float]]:
    """Links with utilization > ``threshold``, by (utilization desc, link asc)."""
    over = [
        (link, util)
        for link, load, capacity in _rows(loads)
        if load and capacity and (util := load / capacity) > threshold
    ]
    over.sort(key=lambda item: (-item[1], item[0]))
    return over


def overload_demand(loads: LinkLoadMap, threshold: float = 1.0) -> float:
    """Total demand above ``threshold`` × capacity on the links over it."""
    return math.fsum(
        load - threshold * capacity
        for _link, load, capacity in _rows(loads)
        if load and capacity and load > threshold * capacity
    )
