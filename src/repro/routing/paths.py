"""Path values shared by the routing layer."""

from __future__ import annotations

from typing import Iterator, NamedTuple, Tuple


class Path(NamedTuple):
    """An explicit routing path with its total cost.

    ``nodes`` includes both endpoints; a path of ``h`` hops has ``h + 1``
    nodes.  The zero-hop path (source == destination) is valid and has cost
    0 — it arises when the recovery initiator *is* the destination's
    neighbor... not quite: it arises when the destination is the initiator
    itself, which the evaluation filters out, but the representation allows
    it so algorithms stay total.
    """

    nodes: Tuple[int, ...]
    cost: float

    @property
    def source(self) -> int:
        """First node of the path."""
        return self.nodes[0]

    @property
    def destination(self) -> int:
        """Last node of the path."""
        return self.nodes[-1]

    def hops(self) -> Iterator[Tuple[int, int]]:
        """Consecutive ``(from, to)`` node pairs along the path."""
        return zip(self.nodes[:-1], self.nodes[1:])

    def __str__(self) -> str:
        return " -> ".join(f"v{n}" for n in self.nodes) + f" (cost {self.cost:g})"
