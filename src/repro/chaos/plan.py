"""Composable, deterministic fault-injection plans.

The reproduction's default world is the idealized one of §II-A: every
router detects its failed neighbors instantly and perfectly, and recovery
packets are never lost.  A :class:`FaultPlan` describes how far a chaos
experiment departs from that world:

* **recovery-packet loss** — each hop transmission of a recovery packet
  is dropped with probability ``packet_loss_rate``;
* **degraded detection** — a fraction of failed adjacencies are *never*
  locally detected (``detection_miss_rate``) or detected only *late*
  (``detection_delay_rate`` + ``detection_delay_hops``), the uncertainty
  driving the wireless-RRR and multiple-failure-MRC lines of work;
* **secondary failures** — links that flap mid-recovery, after a given
  number of network-wide forwarded hops (:class:`SecondaryFailure`);
* **header corruption** — recovery headers that lose their most recent
  entries in flight with probability ``header_corruption_rate``.

Plans are plain frozen dataclasses: hashable, comparable, and fully
determined by their ``seed`` — running the same plan over the same
scenario twice yields bit-identical fault sequences.  Independent random
streams are derived per injector (:meth:`FaultPlan.rng`) so, e.g.,
changing the loss rate does not re-shuffle which adjacencies go
undetected.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import ChaosError

_RATE_FIELDS = (
    "packet_loss_rate",
    "detection_miss_rate",
    "detection_delay_rate",
    "header_corruption_rate",
)


@dataclass(frozen=True)
class SecondaryFailure:
    """One link failing *during* recovery (a mid-walk flap).

    The failure activates once the network has forwarded ``at_hop``
    recovery hops in total.  ``link`` names the endpoints explicitly, or
    is ``None`` to pick a seeded-random live link of the scenario.
    """

    at_hop: int = 1
    link: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.at_hop < 1:
            raise ChaosError(
                f"secondary failure must activate at hop >= 1, got {self.at_hop}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, composable description of injected faults."""

    seed: int = 0
    #: Per-hop probability that a recovery packet transmission is lost.
    packet_loss_rate: float = 0.0
    #: Fraction of failed adjacencies whose detection never happens.
    detection_miss_rate: float = 0.0
    #: Fraction of failed adjacencies whose detection is delayed.
    detection_delay_rate: float = 0.0
    #: Network hops after which delayed detections become visible.
    detection_delay_hops: int = 0
    #: Per-hop probability that a collecting-mode header is truncated.
    header_corruption_rate: float = 0.0
    #: Links flapping mid-recovery, in activation order.
    secondary_failures: Tuple[SecondaryFailure, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ChaosError(f"{name} must be in [0, 1], got {value}")
        if self.detection_miss_rate + self.detection_delay_rate > 1.0:
            raise ChaosError(
                "detection_miss_rate + detection_delay_rate cannot exceed 1"
            )
        if self.detection_delay_hops < 0:
            raise ChaosError(
                f"detection_delay_hops must be >= 0, got {self.detection_delay_hops}"
            )
        if self.detection_delay_rate > 0 and self.detection_delay_hops == 0:
            raise ChaosError(
                "detection_delay_rate needs detection_delay_hops >= 1 "
                "(a zero-hop delay is no delay)"
            )
        # Normalize to tuples so plans built with lists stay hashable.
        object.__setattr__(
            self, "secondary_failures", tuple(self.secondary_failures)
        )

    def rng(self, stream: str) -> random.Random:
        """An independent deterministic RNG for one injector ``stream``."""
        salt = zlib.crc32(stream.encode("utf-8"))
        return random.Random((self.seed & 0xFFFFFFFF) * 0x1_0000_0000 + salt)

    def is_null(self) -> bool:
        """Whether this plan injects nothing (the idealized world)."""
        return (
            all(getattr(self, name) == 0.0 for name in _RATE_FIELDS)
            and not self.secondary_failures
        )
