"""Flow-level workload aggregation.

The north-star workload is "heavy traffic from millions of users", but a
packet-level simulation of millions of flows is pointless work: every
flow of one (source, destination) pair takes the same recovery path and
meets the same fate.  :func:`aggregate_flows` therefore apportions a
synthetic flow population over the demand matrix *once* — a largest-
remainder allocation proportional to demand — and the batched simulator
then pushes **one** probe per OD pair through the recovery pipeline and
multiplies the outcome by the pair's flow count and demand.

The allocation is exact (flow counts sum to ``n_flows``), deterministic
(sorted-pair iteration, fractional-part tie-break on pair order — no RNG
and no ``hash()`` anywhere), and O(pairs log pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import EvaluationError
from .matrix import TrafficMatrix

Pair = Tuple[int, int]


@dataclass(frozen=True)
class FlowBatch:
    """All flows of one OD pair, collapsed into a single simulation unit."""

    source: int
    destination: int
    #: Number of user flows aggregated into this batch.
    flows: int
    #: Demand rate of the pair (the weight of every traffic metric).
    demand: float

    @property
    def pair(self) -> Pair:
        """The ordered (source, destination) pair."""
        return (self.source, self.destination)


class FlowSet:
    """A flow population apportioned over OD pairs."""

    __slots__ = ("matrix", "n_flows", "_batches", "_by_pair", "_by_destination")

    def __init__(self, matrix: TrafficMatrix, batches: List[FlowBatch]) -> None:
        self.matrix = matrix
        self.n_flows = sum(b.flows for b in batches)
        self._batches = batches
        self._by_pair: Dict[Pair, FlowBatch] = {b.pair: b for b in batches}
        self._by_destination: Optional[Dict[int, List[Tuple[int, float, int]]]] = None

    def batches(self) -> Iterator[FlowBatch]:
        """Batches in sorted (source, destination) order."""
        return iter(self._batches)

    def by_destination(self) -> Dict[int, List[Tuple[int, float, int]]]:
        """Destination -> its ``(source, demand, flows)`` rows, :meth:`batches` order.

        Built on first use and shared by every later call — do not mutate.
        """
        if self._by_destination is None:
            self._by_destination = index = {}
            for b in self._batches:
                index.setdefault(b.destination, []).append((b.source, b.demand, b.flows))
        return self._by_destination

    def batch(self, source: int, destination: int) -> FlowBatch:
        """The batch of one pair (zero-flow batch when the pair is absent)."""
        batch = self._by_pair.get((source, destination))
        if batch is None:
            return FlowBatch(source, destination, 0, 0.0)
        return batch

    def flows_of(self, source: int, destination: int) -> int:
        """Flow count of one pair."""
        return self.batch(source, destination).flows

    @property
    def pair_count(self) -> int:
        """Number of OD pairs carrying at least one flow or demand."""
        return len(self._batches)

    def __len__(self) -> int:
        return len(self._batches)

    def __repr__(self) -> str:
        return f"FlowSet(pairs={len(self._batches)}, flows={self.n_flows})"


def aggregate_flows(matrix: TrafficMatrix, n_flows: int) -> FlowSet:
    """Apportion ``n_flows`` over the matrix pairs, proportional to demand.

    Largest-remainder (Hamilton) allocation: every pair gets the floor of
    its exact quota, and the leftover flows go to the pairs with the
    largest fractional parts, ties broken by sorted pair order.  The
    result is deterministic and sums to exactly ``n_flows``.
    """
    if n_flows < 0:
        raise EvaluationError(f"n_flows must be >= 0, got {n_flows}")
    total = matrix.total_demand
    if total <= 0.0:
        raise EvaluationError(
            f"cannot apportion flows over empty matrix {matrix.name!r}"
        )
    quotas: List[Tuple[Pair, int, float, float]] = []
    allocated = 0
    for pair, demand in matrix.items():
        exact = n_flows * (demand / total)
        base = math.floor(exact)
        quotas.append((pair, base, exact - base, demand))
        allocated += base
    leftover = n_flows - allocated
    # Rank by fractional part (descending), then pair order for stability.
    order = sorted(range(len(quotas)), key=lambda i: (-quotas[i][2], quotas[i][0]))
    bump = set(order[:leftover])
    batches = [
        FlowBatch(pair[0], pair[1], base + (1 if i in bump else 0), demand)
        for i, (pair, base, _frac, demand) in enumerate(quotas)
    ]
    return FlowSet(matrix, batches)
