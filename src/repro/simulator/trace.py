"""Structured forwarding traces.

When a :class:`~repro.simulator.engine.ForwardingEngine` is given a
:class:`ForwardingTrace`, every hop transmission is recorded as a typed
event — who sent what to whom, when, in which header mode, carrying how
many recovery bytes.  Traces answer the debugging questions the aggregate
accounting cannot ("where exactly did the walk double back?", "when did
the header peak?").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..topology import Link


@dataclass(frozen=True)
class HopEvent:
    """One packet transmission over one link."""

    time: float
    sender: int
    receiver: int
    link: Link
    mode: int
    header_bytes: int
    packet_id: int
    #: Id of the enclosing observability span (``repro.obs``) active when
    #: the hop was recorded, or ``None`` when tracing is disabled.
    span_id: Optional[int] = None


@dataclass(frozen=True)
class DropEvent:
    """One packet discarded before its transmission completed.

    Recorded by the chaos engine (injected loss) and by degraded-mode
    walks (truncation); the base engine never drops.
    """

    time: float
    node: int
    mode: int
    packet_id: int
    reason: str
    span_id: Optional[int] = None


@dataclass
class ForwardingTrace:
    """An append-only log of hop events."""

    events: List[HopEvent] = field(default_factory=list)
    drops: List[DropEvent] = field(default_factory=list)

    def record(self, event: HopEvent) -> None:
        """Append one event (called by the engine)."""
        self.events.append(event)

    def record_drop(self, event: DropEvent) -> None:
        """Append one drop event (called by the chaos engine)."""
        self.drops.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def duration(self) -> float:
        """Time of the last event (the trace starts at 0)."""
        return self.events[-1].time if self.events else 0.0
