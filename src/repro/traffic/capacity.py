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
  destination (:func:`routed_loads`);
* :class:`LinkLoadMap` — a link-id-indexed accumulator for post-recovery
  loads with utilization and overload queries against the annotated
  capacities (:meth:`LinkLoadMap.summary` reads them all in one pass).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from ..errors import UnknownLinkError
from ..routing import RoutingTable
from ..te.metrics import HISTOGRAM_BINS, UTILIZATION_BIN_WIDTH
from ..topology import Link, Topology
from .matrix import TrafficMatrix

#: Default capacity headroom over the baseline load (2 = links run at
#: <= 50 % utilization before any failure).
DEFAULT_HEADROOM = 2.0

#: Fraction of the mean provisioned capacity granted to links that carry
#: no baseline demand at all (they still have physical capacity).
IDLE_CAPACITY_FRACTION = 0.25


def routed_loads(
    topo: Topology,
    routing: RoutingTable,
    by_destination: Mapping[int, Mapping[int, float]],
) -> LinkLoadMap:
    """Loads of ``destination -> {source: demand}`` on the default paths.

    One :meth:`~repro.routing.RoutingTable.edge_loads_to` pass per
    destination, destinations in sorted order: every link's float sum
    adds its per-destination loads in that order.
    """
    loads = LinkLoadMap(topo)
    for destination in sorted(by_destination):
        loads.merge_loads(routing.edge_loads_to(destination, by_destination[destination]))
    return loads


def baseline_loads(
    topo: Topology, matrix: TrafficMatrix, routing: Optional[RoutingTable] = None
) -> LinkLoadMap:
    """Per-link demand with every pair on its default shortest path."""
    by_destination: Dict[int, Dict[int, float]] = {}
    for (src, dst), demand in matrix.items():
        by_destination.setdefault(dst, {})[src] = demand
    return routed_loads(
        topo, routing if routing is not None else RoutingTable(topo), by_destination
    )


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
    loads = baseline_loads(topo, matrix, routing).lid_loads()
    loaded = [headroom * load for load in loads if load > 0.0]
    mean_capacity = math.fsum(sorted(loaded)) / len(loaded) if loaded else 1.0
    floor = max(IDLE_CAPACITY_FRACTION * mean_capacity, 1e-9)
    capacities: Dict[Link, float] = {}
    for link, load in zip(topo.csr().links, loads):
        if link is None:
            continue
        capacity = max(headroom * load, floor)
        capacities[link] = capacity
        topo.set_link_capacity(link, capacity)
    return capacities


class LoadSummary(NamedTuple):
    """One pass of utilization statistics over a :class:`LinkLoadMap`."""

    #: Fixed-bin utilization counts over every topology link.
    histogram: Tuple[int, ...]
    #: The highest utilization over all links (0.0 with none loaded).
    max_utilization: float
    #: ``(link, utilization)`` of the overloaded links, worst first.
    overloaded: List[Tuple[Link, float]]
    #: Total demand above the threshold capacity (congestion mass).
    overload_demand: float


class LinkLoadMap:
    """Accumulated per-link traffic with utilization/overload queries.

    One float per link id (the CSR view's ``lid``) of the topology as it
    was when the map was built; capacities are read by lid from
    :meth:`Topology.lid_capacities`, so a capacity set later is seen by
    the next query.  Link-level adds check their links and raise
    :class:`~repro.errors.UnknownLinkError` for one the topology does not
    have; the traffic layer itself adds by lid (:meth:`add_lids`).  Every
    link's load is its own float sum in add order — sums of different
    links never mix, so no query depends on the order links were loaded.
    """

    __slots__ = ("topo", "_csr", "_loads")

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self._csr = topo.csr()
        self._loads: List[float] = [0.0] * self._csr.lid_size

    def _lid(self, a: int, b: int) -> int:
        lid = self._csr.pair_lid.get((a, b))
        if lid is None:
            raise UnknownLinkError(Link.of(a, b))
        return lid

    def add_link(self, link: Link, demand: float) -> None:
        """Add ``demand`` to one link."""
        self.add_links((link,), demand)

    def add_links(self, links: Iterable[Link], demand: float) -> None:
        """Add ``demand`` to every link of ``links``, in order.

        Every link is checked before any load is added.
        """
        self.add_lids([self._lid(link.u, link.v) for link in links], demand)

    def add_lids(self, lids: Iterable[int], demand: float) -> None:
        """Add ``demand`` to every link id of ``lids``, in order."""
        if demand <= 0.0:
            return
        loads = self._loads
        for lid in lids:
            loads[lid] += demand

    def merge_loads(self, loads: Mapping[int, float]) -> None:
        """Fold a lid-keyed load dict in (as ``edge_loads_to`` returns it)."""
        own = self._loads
        for lid, load in loads.items():
            own[lid] += load

    def copy(self) -> LinkLoadMap:
        """An independent map over the same topology with the same loads."""
        clone = LinkLoadMap.__new__(LinkLoadMap)
        clone.topo = self.topo
        clone._csr = self._csr
        clone._loads = list(self._loads)
        return clone

    def lid_loads(self) -> List[float]:
        """The load per link id — the map's own list: do not keep it.

        The traffic engine writes a fresh map's intact background straight
        into it; everything else reads it.
        """
        return self._loads

    def load(self, link: Link) -> float:
        """Accumulated demand on ``link``."""
        return self._loads[self._lid(link.u, link.v)]

    def loads(self) -> Dict[Link, float]:
        """Every nonzero link load (a copy, lid order)."""
        return {
            link: load for link, load in zip(self._csr.links, self._loads) if load
        }

    def utilization(self, link: Link) -> float:
        """Load over capacity (0.0 when the link has no capacity set)."""
        lid = self._lid(link.u, link.v)
        capacity = self.topo.lid_capacities()[lid]
        return self._loads[lid] / capacity if capacity else 0.0

    def summary(self, threshold: float = 1.0) -> LoadSummary:
        """Every utilization statistic of the map, in one pass over its links.

        A link with load and capacity has utilization ``load / capacity``;
        one without either has 0.0.  The histogram bins every topology
        link's utilization (idle links in bin 0; see
        :mod:`repro.te.metrics`) and the maximum is over the same values.
        A link is overloaded when its utilization is ``> threshold``
        (ordered by utilization desc, link asc — deterministic); the
        overload demand sums ``load - threshold * capacity`` over the links
        with ``load > threshold * capacity``, in lid order, with
        ``math.fsum``.
        """
        counts = [0] * HISTOGRAM_BINS
        last = HISTOGRAM_BINS - 1
        width = UTILIZATION_BIN_WIDTH
        peak = 0.0
        over: List[Tuple[Link, float]] = []
        excess: List[float] = []
        for link, load, capacity in zip(
            self._csr.links, self._loads, self.topo.lid_capacities()
        ):
            if not (load and capacity):
                if link is not None:
                    counts[0] += 1
                continue
            util = load / capacity
            if link is not None:
                index = int(util / width)
                counts[index if index < last else last] += 1
                if util > peak:
                    peak = util
            if util > threshold:
                over.append((link, util))
            if load > threshold * capacity:
                excess.append(load - threshold * capacity)
        over.sort(key=lambda item: (-item[1], item[0]))
        return LoadSummary(tuple(counts), peak, over, math.fsum(excess))

    def __len__(self) -> int:
        """How many links carry load."""
        return len(self._loads) - self._loads.count(0.0)
