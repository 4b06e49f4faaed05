"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class TopologyError(ReproError):
    """A topology is malformed or an operation referenced a missing element."""


class UnknownNodeError(TopologyError):
    """An operation referenced a node id that is not in the topology."""

    def __init__(self, node: int) -> None:
        super().__init__(f"unknown node id: {node!r}")
        self.node = node


class UnknownLinkError(TopologyError):
    """An operation referenced a link that is not in the topology."""

    def __init__(self, link: object) -> None:
        super().__init__(f"unknown link: {link!r}")
        self.link = link


class RoutingError(ReproError):
    """A routing computation failed (e.g. no path exists where one is required)."""


class NoPathError(RoutingError):
    """No path exists between the requested source and destination."""

    def __init__(self, source: int, destination: int) -> None:
        super().__init__(f"no path from node {source} to node {destination}")
        self.source = source
        self.destination = destination


class SimulationError(ReproError):
    """The packet-level simulator reached an inconsistent state."""


class ForwardingLoopError(SimulationError):
    """A forwarding walk exceeded its hop budget.

    Theorem 1 of the paper guarantees RTR's first phase is free of permanent
    loops; this error therefore indicates either a malformed topology
    (e.g. inconsistent coordinates) or an implementation bug, and carries the
    partial walk for debugging.
    """

    def __init__(self, message: str, walk: list) -> None:
        super().__init__(message)
        self.walk = walk


class ChaosError(ReproError):
    """A fault-injection plan is malformed or references missing elements."""


class EvaluationError(ReproError):
    """An experiment driver was invoked with unusable parameters."""


class TimelineError(ReproError):
    """A failure timeline is malformed or cannot be built."""


class SoakError(ReproError):
    """A soak run configuration or checkpoint journal is unusable."""


class StoreError(ReproError):
    """The persistent run store is missing, incompatible, or corrupt."""
