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
from ..simulator import Mode, Packet
from ..simulator.engine import ForwardingEngine
from ..simulator.stats import RecoveryAccounting
from ..simulator.trace import DropEvent, ForwardingTrace
from ..topology import Link, Topology
from .runtime import ChaosRuntime


class ChaosForwardingEngine(ForwardingEngine):
    """A forwarding engine whose links misbehave per a fault plan.

    It fills the base engine's two hooks: ``lose`` before a recovery
    transmission, ``after_hop`` after every hop.
    """

    def __init__(
        self,
        topo: Topology,
        view: LocalView,
        runtime: ChaosRuntime,
        trace: Optional[ForwardingTrace] = None,
    ) -> None:
        super().__init__(topo, view, trace)
        self.runtime = runtime

    def lose(  # type: ignore[override]
        self, packet: Packet, link: Link, accounting: RecoveryAccounting
    ) -> Optional[str]:
        """One seeded loss draw per prospective transmission, in walk order."""
        if not self.runtime.sample_packet_loss():
            return None
        reason = f"recovery packet lost on link {link} (injected loss)"
        if self.trace is not None:
            self.trace.record_drop(
                DropEvent(
                    time=accounting.clock,
                    node=packet.at,
                    mode=packet.header.mode,
                    packet_id=packet.packet_id,
                    reason=reason,
                    span_id=obs.current_span_id(),
                )
            )
        return reason

    def after_hop(  # type: ignore[override]
        self, packet: Packet, accounting: RecoveryAccounting
    ) -> None:
        """Advance the network hop clock, then maybe truncate the header."""
        self.runtime.on_hop()
        if (
            packet.header.mode == Mode.COLLECTING
            and self.runtime.sample_header_corruption()
        ):
            _truncate_header(packet, accounting)


def _truncate_header(packet: Packet, accounting: RecoveryAccounting) -> None:
    """Drop the most recently recorded variable header entry, if any.

    Failed-link entries are the freshest (and most valuable) information,
    so they are corrupted first; cross-link entries second.  Fixed fields
    (mode, rec_init) are assumed covered by the IP header checksum.
    """
    header = packet.header
    if header.failed_links:
        field_name = "failed_links"
    elif header.cross_links:
        field_name = "cross_links"
    else:
        return
    getattr(header, field_name).pop()
    accounting.carry(header.recovery_bytes(), (field_name, None))
