"""Link capacities, load accounting, and overload detection.

The MRC line of work (Enhanced Multiple Routing Configurations) judges a
recovery scheme by the *post-recovery link load*, not just reachability:
rerouted traffic piles onto surviving links and can congest them.  This
module provides

* :func:`provision_capacities` — annotate a topology with per-link
  capacities derived from its own pre-failure load (every link gets
  ``headroom ×`` its baseline demand, with a floor for idle links), so
  the intact network is never overloaded and post-failure utilization is
  meaningful;
* :func:`baseline_loads` — per-link demand of a matrix routed on the
  default (pre-failure) shortest paths, one batched reverse-SPT pass per
  destination;
* :class:`LinkLoadMap` — an accumulator for post-recovery loads with
  utilization and overload queries against the annotated capacities.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from ..routing import Path, RoutingTable
from ..topology import Link, Topology
from .matrix import TrafficMatrix

#: Default capacity headroom over the baseline load (2 = links run at
#: <= 50 % utilization before any failure).
DEFAULT_HEADROOM = 2.0

#: Fraction of the mean provisioned capacity granted to links that carry
#: no baseline demand at all (they still have physical capacity).
IDLE_CAPACITY_FRACTION = 0.25


def baseline_loads(
    topo: Topology, matrix: TrafficMatrix, routing: Optional[RoutingTable] = None
) -> Dict[Link, float]:
    """Per-link demand with every pair on its default shortest path.

    One :meth:`~repro.routing.RoutingTable.edge_loads_to` pass per
    destination (batched per-root reuse); destinations are visited in
    sorted order so float accumulation is deterministic.
    """
    routing = routing if routing is not None else RoutingTable(topo)
    loads: Dict[Link, float] = {}
    by_destination: Dict[int, Dict[int, float]] = {}
    for (src, dst), demand in matrix.items():
        by_destination.setdefault(dst, {})[src] = demand
    for dst in sorted(by_destination):
        for link, load in sorted(routing.edge_loads_to(dst, by_destination[dst]).items()):
            loads[link] = loads.get(link, 0.0) + load
    return loads


def provision_capacities(
    topo: Topology,
    matrix: TrafficMatrix,
    routing: Optional[RoutingTable] = None,
    headroom: float = DEFAULT_HEADROOM,
) -> Dict[Link, float]:
    """Annotate ``topo`` with capacities sized to its baseline load.

    ``capacity(link) = max(headroom * baseline_load, idle_floor)`` where
    the idle floor is :data:`IDLE_CAPACITY_FRACTION` of the mean loaded
    capacity — no link gets zero capacity.  Returns the capacity map and
    stores it on the topology via :meth:`Topology.set_link_capacity`.
    """
    if headroom <= 0.0:
        raise ValueError(f"headroom must be > 0, got {headroom}")
    loads = baseline_loads(topo, matrix, routing)
    loaded = [headroom * load for load in loads.values() if load > 0.0]
    mean_capacity = math.fsum(sorted(loaded)) / len(loaded) if loaded else 1.0
    floor = max(IDLE_CAPACITY_FRACTION * mean_capacity, 1e-9)
    capacities: Dict[Link, float] = {}
    for link in topo.links():
        capacity = max(headroom * loads.get(link, 0.0), floor)
        capacities[link] = capacity
        topo.set_link_capacity(link, capacity)
    return capacities


class LinkLoadMap:
    """Accumulated per-link traffic with utilization/overload queries."""

    __slots__ = ("topo", "_loads")

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self._loads: Dict[Link, float] = {}

    def add_path(self, path: Path, demand: float) -> None:
        """Route ``demand`` along every link of ``path``."""
        self.add_links([Link.of(a, b) for a, b in path.hops()], demand)

    def add_link(self, link: Link, demand: float) -> None:
        """Add ``demand`` to one link."""
        self.add_links((link,), demand)

    def add_links(self, links: Iterable[Link], demand: float) -> None:
        """Add ``demand`` to every link of ``links``, in order."""
        if demand <= 0.0:
            return
        loads = self._loads
        for link in links:
            loads[link] = loads.get(link, 0.0) + demand

    def copy(self) -> "LinkLoadMap":
        """An independent map over the same topology with the same loads."""
        clone = LinkLoadMap(self.topo)
        clone._loads = dict(self._loads)
        return clone

    def merge_loads(self, loads: Dict[Link, float]) -> None:
        """Fold a per-link load dict in (sorted-key order, deterministic)."""
        for link in sorted(loads):
            self._loads[link] = self._loads.get(link, 0.0) + loads[link]

    def load(self, link: Link) -> float:
        """Accumulated demand on ``link``."""
        return self._loads.get(link, 0.0)

    def loads(self) -> Dict[Link, float]:
        """Every nonzero link load (a copy)."""
        return dict(self._loads)

    def utilization(self, link: Link) -> float:
        """Load over capacity (0.0 when the link has no capacity set)."""
        capacity = self.topo.link_capacity(link)
        if capacity is None or capacity <= 0.0:
            return 0.0
        return self._loads.get(link, 0.0) / capacity

    def max_utilization(self) -> float:
        """The highest utilization over all loaded links."""
        best = 0.0
        for link in sorted(self._loads):
            best = max(best, self.utilization(link))
        return best

    def overloaded_links(
        self, threshold: float = 1.0
    ) -> List[Tuple[Link, float]]:
        """Links with utilization > ``threshold``, worst first.

        Ordered by (utilization desc, link asc) — deterministic.
        """
        over = [
            (link, util)
            for link in sorted(self._loads)
            if (util := self.utilization(link)) > threshold
        ]
        over.sort(key=lambda item: (-item[1], item[0]))
        return over

    def overload_demand(self, threshold: float = 1.0) -> float:
        """Total demand above capacity on overloaded links (congestion mass)."""
        excess = []
        for link in sorted(self._loads):
            capacity = self.topo.link_capacity(link)
            if capacity is None or capacity <= 0.0:
                continue
            limit = threshold * capacity
            if self._loads[link] > limit:
                excess.append(self._loads[link] - limit)
        return math.fsum(excess)

    def top_links(self, n: int = 5) -> List[Tuple[Link, float, float]]:
        """The ``n`` most utilized links as (link, load, utilization)."""
        ranked = sorted(
            self._loads, key=lambda link: (-self.utilization(link), link)
        )
        return [
            (link, self._loads[link], self.utilization(link))
            for link in ranked[:n]
        ]

    def utilization_cdf(self) -> Tuple[int, ...]:
        """Fixed-bin utilization histogram over *every* topology link.

        Delegates to :func:`repro.te.metrics.utilization_histogram`;
        integer counts merge exactly across scenarios and shards.
        """
        from ..te.metrics import utilization_histogram

        return utilization_histogram(self)

    def __len__(self) -> int:
        return len(self._loads)


def total_demand(loads: Iterable[float]) -> float:
    """Fixed-order sum helper (callers pass sorted iterables)."""
    return math.fsum(loads)
