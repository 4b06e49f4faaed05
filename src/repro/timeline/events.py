"""The event vocabulary of a failure timeline.

Three event kinds advance the network through an outage:

* :class:`FailureEvent` — a geometric region lands; the routers inside
  and the links it cuts go down (§II-A semantics).  Cascaded regions
  carry the ``event_id`` of the failure that triggered them.
* :class:`RepairEvent` — one failed router or one cut link comes back.
  Repairs are per-element: a region that took down five links produces
  five independently-timed repair events.
* :class:`FlapEvent` — one link toggles down (``down=True``) or back up
  as part of a flap oscillation.

Events are plain frozen dataclasses ordered by ``(time, event_id)``;
``event_id`` is assigned in builder-creation order, so the total order
is deterministic even for simultaneous events.  ``event_to_dict``
writes an event as JSON for the soak journal and the digests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..errors import TimelineError


@dataclass(frozen=True)
class TimelineEvent:
    """Base event: a point on the simulated clock."""

    time: float
    event_id: int

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def sort_key(self) -> Tuple[float, int]:
        return (self.time, self.event_id)


@dataclass(frozen=True)
class FailureEvent(TimelineEvent):
    """A failure region landing at ``time``.

    ``failed_nodes``/``cut_links`` are the region resolved against the
    topology at build time (cut links exclude links incident to failed
    routers — :class:`~repro.failures.FailureScenario` re-adds those).
    """

    center: Tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0
    failed_nodes: Tuple[int, ...] = field(default_factory=tuple)
    cut_links: Tuple[Tuple[int, int], ...] = field(default_factory=tuple)
    #: "primary" for root causes, "cascade" for triggered secondaries.
    cause: str = "primary"
    #: ``event_id`` of the triggering failure, for cascades.
    parent_id: Optional[int] = None

    @property
    def kind(self) -> str:
        return "failure"


@dataclass(frozen=True)
class RepairEvent(TimelineEvent):
    """One element restored at ``time`` (exactly one of node/link set)."""

    node: Optional[int] = None
    link: Optional[Tuple[int, int]] = None
    #: ``event_id`` of the failure this repair undoes.
    parent_id: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.node is None) == (self.link is None):
            raise TimelineError(
                "a repair event restores exactly one node or one link"
            )

    @property
    def kind(self) -> str:
        return "repair"


@dataclass(frozen=True)
class FlapEvent(TimelineEvent):
    """One link toggling in a flap oscillation."""

    link: Tuple[int, int] = (0, 0)
    #: ``True`` = the link goes down; ``False`` = it comes back up.
    down: bool = True

    @property
    def kind(self) -> str:
        return "flap"


# ----------------------------------------------------------------------
# JSON form (soak journal, determinism digests)

def event_to_dict(event: TimelineEvent) -> Dict[str, object]:
    """A JSON-safe dict fully describing ``event``."""
    d: Dict[str, object] = {
        "kind": event.kind,
        "time": event.time,
        "event_id": event.event_id,
    }
    if isinstance(event, FailureEvent):
        d.update(
            center=list(event.center),
            radius=event.radius,
            failed_nodes=list(event.failed_nodes),
            cut_links=[list(l) for l in event.cut_links],
            cause=event.cause,
            parent_id=event.parent_id,
        )
    elif isinstance(event, RepairEvent):
        d.update(
            node=event.node,
            link=None if event.link is None else list(event.link),
            parent_id=event.parent_id,
        )
    elif isinstance(event, FlapEvent):
        d.update(link=list(event.link), down=event.down)
    else:  # pragma: no cover - no other kinds exist
        raise TimelineError(f"unknown event type {type(event).__name__}")
    return d


def events_digest(events: Sequence[TimelineEvent]) -> str:
    """A stable hex digest of an event sequence (determinism tests)."""
    payload = json.dumps(
        [event_to_dict(e) for e in events], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
