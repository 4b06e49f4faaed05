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
(``(time, bytes)`` after each hop) feeds the Fig. 10 reproduction; it is
rebuilt on read from a log of header changes, never kept per hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ..routing import Path

#: §IV-B: 100 µs through a router (99th-percentile single-hop delay on an
#: OC-12 backbone, Papagiannaki et al.) ...
ROUTER_DELAY_S = 100e-6
#: ... plus 1.7 ms propagation on an average 500 km link ...
PAPER_PROPAGATION_S = 1.7e-3
#: ... is one hop on the clock: Fig. 7's 1.8 ms.
HOP_DELAY_S = ROUTER_DELAY_S + PAPER_PROPAGATION_S


@dataclass
class RecoveryAccounting:
    """Counters one protocol run reports into.

    A hop adds one to ``hops_traveled`` and :data:`HOP_DELAY_S` to
    ``clock``, nothing else; header sizes are logged when they change.
    """

    sp_computations: int = 0
    #: Hops traveled by the (first) packet since the recovery initiator.
    hops_traveled: int = 0
    #: Clock of the run: a running sum of hop delays and clock jumps.
    clock: float = 0.0
    #: Recovery packets retransmitted after an injected loss or truncation.
    retransmissions: int = 0
    #: ``(hops_traveled, header_bytes, clock, change)`` per change: from the
    #: next hop on, packets carry ``header_bytes`` and the clock runs on from
    #: ``clock``.  ``change`` is ``(field, entry)`` when the header's
    #: ``field`` list gained ``entry`` (``None``: lost its last entry).
    header_log: List[tuple] = field(default_factory=list)

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
        self.carry(self.header_log[-1][1] if self.header_log else 0)

    def carry(self, header_bytes: int, change: Optional[tuple] = None) -> None:
        """From the next hop on, packets carry ``header_bytes`` of recovery data."""
        self.header_log.append((self.hops_traveled, header_bytes, self.clock, change))

    def copy(self) -> "RecoveryAccounting":
        """An independent copy (the log is short, so this is cheap)."""
        return replace(self, header_log=list(self.header_log))

    def final_header_bytes(self) -> int:
        """Recovery header bytes the last hop carried (0 before any hop)."""
        carried = 0
        for at, header_bytes, _clock, _change in self.header_log:
            if at >= self.hops_traveled:
                break
            carried = header_bytes
        return carried

    @property
    def header_timeline(self) -> List[Tuple[float, int]]:
        """``(clock, recovery header bytes)`` after each hop, rebuilt from the log.

        The clock is re-summed hop by hop, bit for bit the running clock.
        """
        timeline: List[Tuple[float, int]] = []
        clock, carried, hop = 0.0, 0, 0
        for at, header_bytes, at_clock, _change in self.header_log + [
            (self.hops_traveled, 0, 0.0, None)
        ]:
            while hop < at:
                hop += 1
                clock += HOP_DELAY_S
                timeline.append((clock, carried))
            carried, clock = header_bytes, at_clock
        return timeline


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

