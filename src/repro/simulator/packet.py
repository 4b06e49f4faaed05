"""Packets and recovery headers.

§III-B adds three fields to the packet header for RTR's first phase —
``mode``, ``rec_init``, ``failed_link`` — and §III-C adds ``cross_link``;
§III-D adds the source route for the second phase.  FCP's header carries
its own failed-link list plus a source route.  Link and node ids are 16-bit
(§III-B), which is what the byte accounting below charges.

The evaluation's *transmission overhead* is "the number of bytes used for
recording information" (§IV-C), so :meth:`RecoveryHeader.recovery_bytes`
counts exactly the variable recovery payload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from ..topology import Link

#: 16-bit ids (§III-B).
BYTES_PER_ID = 2

#: mode flag plus the 16-bit recovery-initiator id.
FIXED_RTR_HEADER_BYTES = 1 + BYTES_PER_ID

#: Default payload size assumed by the paper's wasted-transmission metric
#: (§IV-D: "the packet size is 1,000 bytes plus the bytes in the packet
#: header used for recovery").
DEFAULT_PAYLOAD_BYTES = 1000

_packet_ids = itertools.count()


class Mode:
    """Values of the ``mode`` header field (§III-B)."""

    DEFAULT = 0  #: forwarded by the default routing protocol
    COLLECTING = 1  #: forwarded by the first phase of RTR
    SOURCE_ROUTED = 2  #: forwarded on the phase-2 source route


@dataclass
class RecoveryHeader:
    """The variable recovery fields carried in a packet header."""

    mode: int = Mode.DEFAULT
    rec_init: Optional[int] = None
    #: Failed links recorded during RTR phase 1 / FCP traversal, in
    #: insertion order (order matters for byte-timeline accounting).
    failed_links: List[Link] = field(default_factory=list)
    #: Links excluded from crossing (Constraints 1 and 2, §III-C).
    cross_links: List[Link] = field(default_factory=list)
    #: Source route for phase 2 (full recorded path, §III-D).
    source_route: List[int] = field(default_factory=list)

    def record_failed(self, link: Link) -> bool:
        """Record ``link`` in ``failed_link`` if absent; True when added."""
        if link in self.failed_links:
            return False
        self.failed_links.append(link)
        return True

    def recovery_bytes(self) -> int:
        """Bytes of recovery information currently in the header."""
        total = 0
        if self.mode != Mode.DEFAULT:
            total += FIXED_RTR_HEADER_BYTES
        total += BYTES_PER_ID * len(self.failed_links)
        total += BYTES_PER_ID * len(self.cross_links)
        total += BYTES_PER_ID * len(self.source_route)
        return total

    def copy(self) -> "RecoveryHeader":
        """An independent copy (e.g. for per-packet timelines)."""
        return RecoveryHeader(
            mode=self.mode,
            rec_init=self.rec_init,
            failed_links=list(self.failed_links),
            cross_links=list(self.cross_links),
            source_route=list(self.source_route),
        )


@dataclass
class Packet:
    """A data packet moving through the simulated network."""

    source: int
    destination: int
    header: RecoveryHeader = field(default_factory=RecoveryHeader)
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: Node the packet currently sits at.
    at: Optional[int] = None
    #: Hops traveled since the recovery initiator took charge.
    recovery_hops: int = 0

    def __post_init__(self) -> None:
        if self.at is None:
            self.at = self.source

    def total_bytes(self) -> int:
        """Payload plus recovery header — the ``s`` of the §IV-D metric."""
        return self.payload_bytes + self.header.recovery_bytes()
