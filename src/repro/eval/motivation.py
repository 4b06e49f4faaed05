"""The paper's §I motivation, quantified: packet loss during convergence.

§I argues that IGP convergence "usually takes several seconds even for a
single link failure" and that a disconnected OC-192 link (10 Gb/s) drops
about 12 million 1000-byte packets in 10 seconds.  This experiment puts
the two recovery regimes side by side on a simulated failure:

* **without RTR** — a failed flow stays black-holed until the IGP
  convergence timeline (:class:`repro.routing.LinkStateProtocol`) gives
  its recovery initiator a valid table again;
* **with RTR** — a *recoverable* flow is forwarded again as soon as the
  initiator's phase-1 walk finishes (tens of milliseconds); irrecoverable
  flows are discarded at the initiator either way (and RTR at least stops
  wasting bandwidth on them).

The result is an outage-duration distribution per flow and the §I-style
packets-dropped arithmetic at a configurable line rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..schemes.oracle import Oracle
from ..core import RTR
from ..failures import FailureScenario, LocalView, random_circle
from ..routing import ConvergenceConfig, LinkStateProtocol
from ..topology import isp_catalog


@dataclass
class FlowOutage:
    """Outage experienced by one failed flow under both regimes."""

    initiator: int
    destination: int
    recoverable: bool
    #: Seconds until default routing works again (IGP convergence).
    outage_without_rtr: float
    #: Seconds until RTR forwards again (None = never, irrecoverable).
    outage_with_rtr: Optional[float]


@dataclass
class MotivationReport:
    """Aggregate §I-style numbers for one failure event."""

    flows: int
    recoverable_flows: int
    network_converged_at: float
    mean_outage_without_rtr: float
    mean_outage_with_rtr: float
    worst_outage_with_rtr: float
    #: Packets a ``line_rate_bps`` aggregate would drop per recoverable
    #: flow-second of outage, without vs with RTR.
    packets_dropped_without_rtr: float
    packets_dropped_with_rtr: float
    outages: List[FlowOutage]

    def packets_saved(self) -> float:
        """Packets RTR keeps flowing during the convergence window."""
        return self.packets_dropped_without_rtr - self.packets_dropped_with_rtr


def packet_loss_during_convergence(
    name: str = "AS209",
    seed: int = 0,
    scenario: Optional[FailureScenario] = None,
    convergence: Optional[ConvergenceConfig] = None,
    line_rate_bps: float = 10e9,
    packet_bytes: int = 1000,
    max_flows: int = 500,
) -> MotivationReport:
    """Quantify per-flow outage with and without RTR for one failure.

    Flows are the distinct (initiator, destination) recovery cases of the
    scenario, each modeled as a saturated ``line_rate_bps`` aggregate of
    ``packet_bytes`` packets (the paper's OC-192 arithmetic).
    """
    topo = isp_catalog.build(name, seed=seed)
    if scenario is None:
        rng = random.Random(seed + 1)
        scenario = FailureScenario.from_region(topo, random_circle(rng))
        while not scenario.failed_links:
            scenario = FailureScenario.from_region(topo, random_circle(rng))

    proto = LinkStateProtocol(topo, convergence)
    report = proto.apply_failure(
        set(scenario.failed_nodes), set(scenario.failed_links)
    )
    rtr = RTR(topo, scenario, routing=proto.before)
    oracle = Oracle(topo, scenario)
    view = LocalView(scenario)
    detection = proto.config.detection_delay

    outages: List[FlowOutage] = []
    for initiator in sorted(scenario.live_nodes()):
        unreachable = set(view.unreachable_neighbors(initiator))
        if not unreachable:
            continue
        for destination in sorted(topo.nodes()):
            if destination == initiator or len(outages) >= max_flows:
                continue
            next_hop = proto.before.next_hop(initiator, destination)
            if next_hop not in unreachable:
                continue
            recoverable = oracle.is_recoverable(initiator, destination)
            without = report.router_converged_at.get(
                initiator, report.network_converged_at
            )
            with_rtr: Optional[float] = None
            result = rtr.recover(initiator, destination, next_hop)
            if result.delivered:
                # Packets flow again once the walk has the failure map
                # (they are delayed, not dropped, during the walk itself).
                with_rtr = detection + result.phase1_duration
            elif recoverable:
                # Rare missed-failure case: RTR's route is dead, so the
                # flow waits for convergence like everyone else.
                with_rtr = without
            outages.append(
                FlowOutage(initiator, destination, recoverable, without, with_rtr)
            )

    recoverable_flows = [o for o in outages if o.recoverable]
    pkts_per_second = line_rate_bps / 8.0 / packet_bytes

    def dropped(seconds: float) -> float:
        return seconds * pkts_per_second

    without_total = sum(o.outage_without_rtr for o in recoverable_flows)
    with_total = sum(
        o.outage_with_rtr if o.outage_with_rtr is not None else o.outage_without_rtr
        for o in recoverable_flows
    )
    n_rec = max(len(recoverable_flows), 1)
    return MotivationReport(
        flows=len(outages),
        recoverable_flows=len(recoverable_flows),
        network_converged_at=report.network_converged_at,
        mean_outage_without_rtr=without_total / n_rec,
        mean_outage_with_rtr=with_total / n_rec,
        worst_outage_with_rtr=max(
            (
                o.outage_with_rtr
                for o in recoverable_flows
                if o.outage_with_rtr is not None
            ),
            default=0.0,
        ),
        packets_dropped_without_rtr=dropped(without_total),
        packets_dropped_with_rtr=dropped(with_total),
        outages=outages,
    )


def availability_timeline(
    report: MotivationReport, step: float = 0.05, horizon: Optional[float] = None
) -> List[Tuple[float, float, float]]:
    """``(t, frac_flows_up_without_rtr, frac_flows_up_with_rtr)`` samples.

    Only recoverable flows count (irrecoverable ones can never be up).
    """
    flows = [o for o in report.outages if o.recoverable]
    if not flows:
        return []
    end = horizon if horizon is not None else report.network_converged_at + 2 * step
    samples: List[Tuple[float, float, float]] = []
    t = 0.0
    while t <= end + 1e-9:
        up_without = sum(1 for o in flows if t >= o.outage_without_rtr)
        up_with = sum(
            1
            for o in flows
            if o.outage_with_rtr is not None and t >= o.outage_with_rtr
        )
        samples.append((round(t, 6), up_without / len(flows), up_with / len(flows)))
        t += step
    return samples
