"""Recovery accounting.

The evaluation compares approaches on four cost axes (§IV-C, §IV-D):

* **computational overhead** — number of on-demand shortest-path
  calculations,
* **transmission overhead** — bytes of recovery information in headers,
* **wasted computation** — SP calculations spent on a packet that is
  ultimately discarded,
* **wasted transmission** — ``s * h``: packet size (1000 B payload + the
  recovery header) times hops from the recovery initiator to the node that
  discards the packet.

Protocol implementations report into a :class:`RecoveryAccounting` as they
run; the evaluation layer reads the totals.  The header-byte *timeline*
(``(time, bytes)`` samples at each hop) feeds the Fig. 10 reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..routing import Path


@dataclass
class RecoveryAccounting:
    """Counters one protocol run reports into."""

    sp_computations: int = 0
    #: ``(time_seconds, recovery_header_bytes)`` after each hop transmission.
    header_timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: Hops traveled by the (first) packet since the recovery initiator.
    hops_traveled: int = 0
    #: Clock of the run, advanced by the delay model.
    clock: float = 0.0
    #: Recovery packets retransmitted after an injected loss or truncation.
    retransmissions: int = 0

    def count_sp(self, n: int = 1) -> None:
        """Record ``n`` on-demand shortest-path computations."""
        self.sp_computations += n

    def count_retry(self, n: int = 1) -> None:
        """Record ``n`` recovery-packet retransmissions."""
        self.retransmissions += n

    def advance_clock(self, delay: float) -> None:
        """Advance the clock without a hop (retry backoff, convergence wait)."""
        if delay < 0:
            raise ValueError(f"cannot advance the clock backwards ({delay})")
        self.clock += delay

    def record_hop(self, delay: float, header_bytes: int) -> None:
        """Record one hop transmission carrying ``header_bytes`` of recovery data."""
        self.clock += delay
        self.hops_traveled += 1
        self.header_timeline.append((self.clock, header_bytes))

    def peak_header_bytes(self) -> int:
        """Largest recovery header carried on any hop."""
        if not self.header_timeline:
            return 0
        return max(b for _, b in self.header_timeline)

    def final_header_bytes(self) -> int:
        """Recovery header size on the last recorded hop."""
        if not self.header_timeline:
            return 0
        return self.header_timeline[-1][1]

    def mean_header_bytes(self) -> float:
        """Mean recovery-header size over all hops (0.0 with no hops)."""
        if not self.header_timeline:
            return 0.0
        return math.fsum(b for _, b in self.header_timeline) / len(
            self.header_timeline
        )


@dataclass
class RecoveryResult:
    """Normalized outcome of one recovery attempt by any approach.

    This is the lingua franca of :mod:`repro.eval`: RTR, FCP, and MRC all
    reduce their runs to one of these.
    """

    approach: str
    #: Whether a packet reached the destination.
    delivered: bool
    #: The initiator -> destination path actually used (None if dropped).
    path: Optional[Path]
    accounting: RecoveryAccounting
    #: Duration of RTR's first phase in seconds (0 for other approaches).
    phase1_duration: float = 0.0
    #: Hops of RTR's first-phase walk (0 for other approaches).
    phase1_hops: int = 0
    #: Hops from the initiator to the node that dropped the packet, and the
    #: packet size there — the ``h`` and ``s`` of the §IV-D metric.
    drop_hops: int = 0
    drop_packet_bytes: int = 0
    #: Whether this outcome came from the graceful-degradation ladder
    #: falling back to waiting out OSPF reconvergence (the fate of traffic
    #: when RTR itself could not complete under injected faults).
    fallback: bool = False
    #: Recovery-packet retries (phase-1 retransmissions, phase-2 resends
    #: and §III-D re-invocations) spent on this case.
    retries: int = 0
    #: Whether a congestion-aware sweep refused this recovery at the
    #: initiator because admitting it would push some link past the
    #: utilization cap (traffic shed for congestion-free recovery).  The
    #: packet is discarded before transmission, so no waste accrues.
    admission_dropped: bool = False
    #: When per-case error isolation caught a crash, the formatted
    #: exception; ``None`` for any outcome the protocol itself produced.
    error: Optional[str] = None

    @property
    def status(self) -> str:
        """``delivered`` / ``dropped`` / ``fallback`` / ``error``."""
        if self.error is not None:
            return "error"
        if self.fallback:
            return "fallback"
        return "delivered" if self.delivered else "dropped"

    @property
    def sp_computations(self) -> int:
        """On-demand shortest-path computations of this run."""
        return self.accounting.sp_computations

    def wasted_transmission(self) -> float:
        """``s * h`` for a dropped packet; 0 when delivered (§IV-D)."""
        if self.delivered:
            return 0.0
        return float(self.drop_packet_bytes * self.drop_hops)

