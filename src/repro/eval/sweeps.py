"""Sensitivity sweeps — how RTR's behaviour scales with the failure size.

The paper sweeps the radius only for the irrecoverable-share figure
(Fig. 11).  These drivers extend the same axis to the headline metrics,
answering the natural follow-up questions:

* how does RTR's recovery rate degrade as the area grows?  (phase 1
  misses more interior failures under larger areas),
* how does the phase-1 walk length (and so the delay) grow with the
  radius?

Both return per-topology series usable exactly like the Fig. 11 output
and feed ``benchmarks/bench_sensitivity.py``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..schemes.oracle import Oracle
from ..core import RTR, RTRConfig
from ..failures import LocalView, fixed_radius_scenarios
from ..routing import RoutingTable
from ..topology import isp_catalog
from .statistics import wilson_interval

DEFAULT_RADII: Tuple[float, ...] = (60.0, 120.0, 180.0, 240.0, 300.0)


def _cases_for_radius(topo, routing, rng, radius, n_cases):
    """Collect recoverable cases from fixed-radius scenarios."""
    gen = fixed_radius_scenarios(topo, rng, radius)
    collected = []
    guard = 0
    while len(collected) < n_cases and guard < 10_000:
        guard += 1
        scenario = next(gen)
        if not scenario.failed_links:
            continue
        oracle = Oracle(topo, scenario)
        view = LocalView(scenario)
        for initiator in scenario.live_nodes():
            bad = set(view.unreachable_neighbors(initiator))
            if not bad:
                continue
            for destination in scenario.live_nodes():
                if destination == initiator or len(collected) >= n_cases:
                    continue
                nh = routing.next_hop(initiator, destination)
                if nh not in bad:
                    continue
                if not oracle.is_recoverable(initiator, destination):
                    continue
                collected.append((scenario, initiator, destination, nh))
    return collected


def recovery_rate_vs_radius(
    topologies: Sequence[str] = ("AS209", "AS1239"),
    radii: Iterable[float] = DEFAULT_RADII,
    n_cases: int = 150,
    seed: int = 0,
    config: Optional[RTRConfig] = None,
) -> Dict[str, List[Dict]]:
    """RTR recovery rate (with Wilson CI) per failure radius."""
    out: Dict[str, List[Dict]] = {}
    for name in topologies:
        topo = isp_catalog.build(name, seed=seed)
        routing = RoutingTable(topo)
        rows: List[Dict] = []
        for radius in radii:
            rng = random.Random(seed * 7907 + int(radius))
            cases = _cases_for_radius(topo, routing, rng, radius, n_cases)
            delivered = 0
            rtr_by_scenario: Dict[int, RTR] = {}
            for scenario, initiator, destination, trigger in cases:
                key = id(scenario)
                rtr = rtr_by_scenario.get(key)
                if rtr is None:
                    rtr = RTR(topo, scenario, routing=routing, config=config)
                    rtr_by_scenario[key] = rtr
                if rtr.recover(initiator, destination, trigger).delivered:
                    delivered += 1
            n = len(cases)
            lo, hi = wilson_interval(delivered, n) if n else (0.0, 0.0)
            rows.append(
                {
                    "radius": radius,
                    "cases": n,
                    "recovery_rate_pct": round(100.0 * delivered / n, 1) if n else 0.0,
                    "ci_lo_pct": round(100.0 * lo, 1),
                    "ci_hi_pct": round(100.0 * hi, 1),
                }
            )
        out[name] = rows
    return out


def walk_length_vs_radius(
    topologies: Sequence[str] = ("AS209", "AS1239"),
    radii: Iterable[float] = DEFAULT_RADII,
    n_initiators: int = 120,
    seed: int = 0,
) -> Dict[str, List[Dict]]:
    """Mean/max phase-1 walk hops per failure radius.

    Bigger areas have longer boundaries, so the walk (and the §IV-B
    delay) grows with the radius.
    """
    out: Dict[str, List[Dict]] = {}
    for name in topologies:
        topo = isp_catalog.build(name, seed=seed)
        routing = RoutingTable(topo)
        rows: List[Dict] = []
        for radius in radii:
            rng = random.Random(seed * 104729 + int(radius) + 1)
            gen = fixed_radius_scenarios(topo, rng, radius)
            hops: List[int] = []
            guard = 0
            while len(hops) < n_initiators and guard < 5_000:
                guard += 1
                scenario = next(gen)
                if not scenario.failed_links:
                    continue
                rtr = RTR(topo, scenario, routing=routing)
                view = LocalView(scenario)
                for initiator in scenario.live_nodes():
                    unreachable = view.unreachable_neighbors(initiator)
                    if not unreachable or len(hops) >= n_initiators:
                        continue
                    phase1 = rtr.phase1_for(initiator, unreachable[0])
                    hops.append(phase1.hops)
            rows.append(
                {
                    "radius": radius,
                    "initiators": len(hops),
                    "mean_walk_hops": round(sum(hops) / len(hops), 1) if hops else 0.0,
                    "max_walk_hops": max(hops) if hops else 0,
                    "mean_duration_ms": round(
                        1800.0 * sum(hops) / len(hops) / 1000.0, 1
                    )
                    if hops
                    else 0.0,
                }
            )
        out[name] = rows
    return out
