"""Forwarding engine with fault injection.

:class:`ChaosForwardingEngine` is a drop-in
:class:`~repro.simulator.engine.ForwardingEngine` that consults the
shared :class:`~repro.chaos.runtime.ChaosRuntime` on every transmission:

* before a hop, the per-hop loss stream may drop the packet — walks and
  source-routed deliveries then report ``lost=True`` through the
  engine's outcome types instead of silently continuing;
* after a hop, the network hop clock advances (activating due secondary
  failures) and the corruption stream may truncate a collecting-mode
  recovery header, discarding its most recently recorded entries — the
  on-the-wire analogue of a damaged option field.

Header truncation only ever *removes* information, so a corrupted phase-1
result is indistinguishable from an honest walk that missed failures —
which is exactly the degraded input the §III-D hardening must absorb.
"""

from __future__ import annotations

from typing import Optional

from .. import obs
from ..failures import LocalView
from ..simulator import DEFAULT_DELAY_MODEL, Mode, Packet
from ..simulator.delays import DelayModel
from ..simulator.engine import ForwardingEngine
from ..simulator.stats import RecoveryAccounting
from ..simulator.trace import ForwardingTrace
from ..topology import Link, Topology
from .runtime import ChaosRuntime

log = obs.get_logger(__name__)


class ChaosForwardingEngine(ForwardingEngine):
    """A forwarding engine whose links misbehave per a fault plan."""

    def __init__(
        self,
        topo: Topology,
        view: LocalView,
        runtime: ChaosRuntime,
        delay_model: DelayModel = DEFAULT_DELAY_MODEL,
        trace: Optional[ForwardingTrace] = None,
    ) -> None:
        super().__init__(topo, view, delay_model, trace)
        self.runtime = runtime

    def _chaos_check(self, packet: Packet, link: Link) -> Optional[str]:
        # One seeded loss draw per prospective transmission, in walk order.
        if self.runtime.sample_packet_loss():
            return f"recovery packet lost on link {link} (injected loss)"
        return None

    def forward_one_hop(
        self,
        packet: Packet,
        next_node: int,
        link: Link,
        accounting: RecoveryAccounting,
    ) -> None:
        super().forward_one_hop(packet, next_node, link, accounting)
        self.runtime.on_hop()
        if (
            packet.header.mode == Mode.COLLECTING
            and self.runtime.sample_header_corruption()
        ):
            _truncate_header(packet)


def _truncate_header(packet: Packet) -> None:
    """Drop the most recently recorded variable header entry, if any.

    Failed-link entries are the freshest (and most valuable) information,
    so they are corrupted first; cross-link entries second.  Fixed fields
    (mode, rec_init) are assumed covered by the IP header checksum.
    """
    header = packet.header
    if header.failed_links:
        dropped = header.failed_links.pop()
        kind = "failed-link"
    elif header.cross_links:
        dropped = header.cross_links.pop()
        kind = "cross-link"
    else:
        return
    log.warning(
        "chaos truncated %s entry %s from recovery header at node %s "
        "(packet %s -> %s)",
        kind,
        dropped,
        packet.at,
        packet.source,
        packet.destination,
    )
