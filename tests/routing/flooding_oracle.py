"""Test-only packetized LSA flooding — the oracle for the analytic timeline.

:mod:`repro.routing.linkstate` computes the IGP convergence timeline
analytically.  This module runs it instead: link-state advertisements
are individual messages moving over surviving links through a small
discrete-event queue, with duplicate suppression and per-router SPF
runs.  With a constant per-hop delay the two must agree exactly, which
``test_flooding.py`` asserts; it also counts messages, which the analytic
model cannot.

Model: each detector originates one LSA (origin id + sequence number)
after ``detection_delay + lsa_hold_down``; a router receiving a new LSA
stores it and re-floods to every live neighbor except the sender;
duplicates are counted and dropped.  A router is converged ``spf_time``
after the last new LSA it will ever receive.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.routing import ConvergenceConfig
from repro.topology import Link, Topology

Action = Callable[[], None]


class EventQueue:
    """A time-ordered callback queue with stable FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Action]] = []
        self._counter = itertools.count()
        self.now = 0.0
        self.processed = 0

    def schedule(self, when: float, action: Action) -> None:
        """Run ``action`` at absolute time ``when`` (>= now)."""
        if when < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now {self.now}"
            )
        heapq.heappush(self._heap, (when, next(self._counter), action))

    def schedule_in(self, delay: float, action: Action) -> None:
        """Run ``action`` ``delay`` seconds from now."""
        self.schedule(self.now + delay, action)

    @property
    def pending(self) -> int:
        """Number of events waiting."""
        return len(self._heap)

    def step(self) -> bool:
        """Process the next event; False when the queue is empty."""
        if not self._heap:
            return False
        when, _seq, action = heapq.heappop(self._heap)
        self.now = when
        action()
        self.processed += 1
        return True

    def run(
        self, until: Optional[float] = None, max_events: int = 10_000_000
    ) -> float:
        """Drain the queue, optionally stopping at time ``until``.

        Returns the final clock value.  ``max_events`` guards against
        accidental event storms.
        """
        count = 0
        while self._heap:
            when = self._heap[0][0]
            if until is not None and when > until:
                self.now = until
                return self.now
            if count >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            self.step()
            count += 1
        if until is not None:
            self.now = max(self.now, until)
        return self.now


class Lsa(NamedTuple):
    """One link-state advertisement instance."""

    origin: int
    sequence: int


@dataclass
class FloodingReport:
    """Everything the packetized flooding run produced."""

    #: Per-router instant its routing table is valid again.
    router_converged_at: Dict[int, float]
    #: When the last router converged.
    network_converged_at: float
    #: Total LSA transmissions (each hop of each copy).
    messages_sent: int
    #: Transmissions discarded as duplicates at the receiver.
    duplicates_received: int
    #: Per-router arrival time of each origin's LSA.
    arrival_times: Dict[int, Dict[int, float]] = field(default_factory=dict)


class FloodingSimulator:
    """Discrete-event LSA flooding over the surviving topology."""

    def __init__(
        self,
        topo: Topology,
        failed_nodes: Set[int],
        failed_links: Set[Link],
        config: Optional[ConvergenceConfig] = None,
    ) -> None:
        self.topo = topo
        self.failed_nodes = set(failed_nodes)
        self.failed_links = set(failed_links)
        self.config = config or ConvergenceConfig()
        # The analytic model charges flood_hop_delay per hop, so every LSA
        # transmission takes exactly that long and the two agree.
        self.hop_delay = self.config.flood_hop_delay
        self.queue = EventQueue()
        self._live_nodes = {
            n for n in topo.nodes() if n not in self.failed_nodes
        }
        # Router state.
        self._seen: Dict[int, Set[Lsa]] = {n: set() for n in self._live_nodes}
        self._arrivals: Dict[int, Dict[int, float]] = {
            n: {} for n in self._live_nodes
        }
        self.messages_sent = 0
        self.duplicates_received = 0

    # ------------------------------------------------------------------

    def detectors(self) -> Set[int]:
        """Live routers adjacent to a failed element."""
        found: Set[int] = set()
        for link in self.failed_links:
            for end in (link.u, link.v):
                if end in self._live_nodes:
                    found.add(end)
        for node in self.failed_nodes:
            if not self.topo.has_node(node):
                continue
            for nb in self.topo.neighbors(node):
                if nb in self._live_nodes:
                    found.add(nb)
        return found

    def _usable(self, a: int, b: int) -> bool:
        return (
            b in self._live_nodes
            and Link.of(a, b) not in self.failed_links
        )

    def _transmit(self, sender: int, receiver: int, lsa: Lsa) -> None:
        self.messages_sent += 1
        self.queue.schedule_in(self.hop_delay, lambda: self._receive(receiver, sender, lsa))

    def _receive(self, router: int, sender: int, lsa: Lsa) -> None:
        if lsa in self._seen[router]:
            self.duplicates_received += 1
            return
        self._seen[router].add(lsa)
        self._arrivals[router][lsa.origin] = self.queue.now
        for nb in self.topo.neighbors(router):
            if nb == sender or not self._usable(router, nb):
                continue
            self._transmit(router, nb, lsa)

    def _originate(self, router: int, lsa: Lsa) -> None:
        self._seen[router].add(lsa)
        self._arrivals[router][lsa.origin] = self.queue.now
        for nb in self.topo.neighbors(router):
            if self._usable(router, nb):
                self._transmit(router, nb, lsa)

    # ------------------------------------------------------------------

    def run(self) -> FloodingReport:
        """Flood every detector's LSA and compute convergence times."""
        origin_time = self.config.detection_delay + self.config.lsa_hold_down
        for detector in sorted(self.detectors()):
            lsa = Lsa(origin=detector, sequence=1)
            self.queue.schedule(
                origin_time, lambda d=detector, l=lsa: self._originate(d, l)
            )
        self.queue.run()

        converged: Dict[int, float] = {}
        for router in self._live_nodes:
            arrivals = self._arrivals[router]
            last = max(arrivals.values()) if arrivals else 0.0
            converged[router] = last + self.config.spf_time
        network = max(converged.values()) if converged else 0.0
        return FloodingReport(
            router_converged_at=converged,
            network_converged_at=network,
            messages_sent=self.messages_sent,
            duplicates_received=self.duplicates_received,
            arrival_times=self._arrivals,
        )
