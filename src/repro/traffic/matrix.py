"""Traffic demand matrices.

The paper evaluates recovery with one probe packet per (source,
destination) pair — every disrupted pair counts the same.  Real recovery
quality is weighted by how much traffic each pair carries (R3 makes the
demand matrix a first-class input; the MRC line evaluates post-recovery
link *load*).  A :class:`TrafficMatrix` is that input: a non-negative
demand rate for every ordered pair of distinct nodes, in abstract
demand units per second (calibrate to Mb/s or flows/s as needed).

Matrices are plain data and deterministic: pair iteration is always in
sorted ``(source, destination)`` order, so every float accumulation over
a matrix has a fixed order regardless of insertion history or
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Tuple

from ..errors import EvaluationError

Pair = Tuple[int, int]


class TrafficMatrix:
    """Non-negative demand per ordered (source, destination) pair.

    Zero-demand pairs may be omitted; ``demand()`` returns 0.0 for them.
    The diagonal is always zero — a self-pair entry is rejected.
    """

    __slots__ = ("name", "_demands", "_pairs", "_total")

    def __init__(self, demands: Dict[Pair, float], name: str = "traffic") -> None:
        self.name = name
        cleaned: Dict[Pair, float] = {}
        for (src, dst), value in demands.items():
            if src == dst:
                raise EvaluationError(
                    f"traffic matrix {name!r} has a diagonal entry at node {src}"
                )
            if value < 0:
                raise EvaluationError(
                    f"negative demand {value} for pair ({src}, {dst}) in {name!r}"
                )
            if value > 0.0:
                cleaned[(src, dst)] = float(value)
        self._demands = cleaned
        #: Sorted pair list — the canonical iteration order of the matrix.
        self._pairs: List[Pair] = sorted(cleaned)
        self._total = math.fsum(cleaned[p] for p in self._pairs)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def total_demand(self) -> float:
        """Aggregate demand over every pair (fixed-order ``fsum``)."""
        return self._total

    def demand(self, source: int, destination: int) -> float:
        """Demand rate of one ordered pair (0.0 when absent)."""
        return self._demands.get((source, destination), 0.0)

    def pairs(self) -> Iterator[Pair]:
        """Positive-demand pairs in sorted (source, destination) order."""
        return iter(self._pairs)

    def items(self) -> Iterator[Tuple[Pair, float]]:
        """``((source, destination), demand)`` in sorted pair order."""
        return ((p, self._demands[p]) for p in self._pairs)

    def sources(self) -> List[int]:
        """Distinct sources with positive outbound demand, sorted."""
        return sorted({s for s, _ in self._pairs})

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------

    def digest(self) -> str:
        """Process-independent fingerprint of the exact float contents.

        Built from ``float.hex`` of every entry in sorted pair order, so
        two matrices digest equal iff they are bit-identical — the
        cross-process seed-stability tests compare these.
        """
        import hashlib

        h = hashlib.sha256()
        for (s, d), v in self.items():
            h.update(f"{s},{d},{v.hex()};".encode())
        return h.hexdigest()[:16]

    def __len__(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:
        return (
            f"TrafficMatrix(name={self.name!r}, pairs={len(self._pairs)}, "
            f"total={self._total:.6g})"
        )
