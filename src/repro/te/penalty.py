"""Load-penalized link metric, integer-quantized for both kernel backends.

The congestion-aware metric makes a loaded link look *longer*:

    w'(link) = w(link) · (QUANT + units(link)),
    units(link) = ⌊QUANT · α · min(util, clip)^β⌋

with everything on the right an integer (``units``) or an exactly
representable integer-valued float (``w`` on the graphs the numpy
kernels accept).  Because the penalized weight is the base weight times
an integer, the bit-identical sweep argument of DESIGN.md §12 carries
over unchanged: the numpy penalized kernel
(:func:`repro.routing.kernels.penalized_numpy`) reproduces the reference
heap kernel (:func:`repro.routing.dijkstra._penalized_csr_kernel`) bit for
bit.

With zero units everywhere the penalized SPT equals the base SPT (all
distances scaled by ``QUANT``), so an idle network routes exactly as the
paper's metric does; as links approach capacity their multiplier grows
quadratically (default β = 2) up to ``1 + α·clip^β`` ≈ 33× — phase-2
reroutes and R3 protection detours spread around hot links instead of
piling onto them.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING

from .. import obs
from ..errors import SimulationError
from ..routing import Path
from ..topology import Link, Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..traffic.capacity import LinkLoadMap

#: Integer quantization base of the penalty multiplier: one unit is
#: ``1/PENALTY_QUANT`` of a multiplicative step over the base cost.
PENALTY_QUANT = 32

#: Default strength of the penalty at utilization 1.0 (a link exactly at
#: capacity looks ``1 + α`` = 9× longer).
DEFAULT_PENALTY_ALPHA = 8.0

#: Default superlinearity: lightly loaded links are barely penalized,
#: near-capacity links steeply.
DEFAULT_PENALTY_EXPONENT = 2.0

#: Utilization above this contributes no further penalty (keeps the
#: quantized units bounded, which keeps the numpy kernel exact).
DEFAULT_UTILIZATION_CLIP = 2.0


def penalty_units(
    utilization: float,
    alpha: float = DEFAULT_PENALTY_ALPHA,
    exponent: float = DEFAULT_PENALTY_EXPONENT,
    clip: float = DEFAULT_UTILIZATION_CLIP,
    quant: int = PENALTY_QUANT,
) -> int:
    """Integer penalty units for one link's utilization (deterministic)."""
    if utilization <= 0.0:
        return 0
    clipped = utilization if utilization < clip else clip
    return int(quant * alpha * clipped**exponent)


class LinkPenalty:
    """Per-link penalty units of one load picture, as the kernels read them.

    Built from observed (or virtual) link loads against provisioned
    capacities; consumed by the penalized shortest-path kernels as a
    lid-indexed unit array.  Links without capacity annotations carry no
    penalty — on an unprovisioned topology the penalized metric
    degenerates to the base metric (scaled), by construction.

    A penalty is *live*: whoever built it owns it and may :meth:`refresh`
    it in place, by link id, as its loads grow (a congestion-aware
    :class:`~repro.traffic.TrafficEngine` window keeps one per approach
    and hands it to the scheme at instantiation).  A holder reads
    ``units`` / :meth:`lid_units` at decision time and keys anything it
    derives from them by :attr:`version`, which every refresh bumps — RTR
    drops its phase-2 engines (and their trees) whenever the version has
    moved.  Copy ``units`` to keep a snapshot.
    """

    __slots__ = ("units", "quant", "version", "_shape", "_lid_cache")

    def __init__(self, units: Dict[Link, int], quant: int = PENALTY_QUANT) -> None:
        self.units = {link: u for link, u in units.items() if u > 0}
        self.quant = quant
        #: Bumped by every :meth:`refresh`, even one that changes nothing.
        self.version = 0
        #: ``(alpha, exponent, clip)`` every unit of this penalty is derived with.
        self._shape = (
            DEFAULT_PENALTY_ALPHA,
            DEFAULT_PENALTY_EXPONENT,
            DEFAULT_UTILIZATION_CLIP,
        )
        self._lid_cache: Optional[List[int]] = None

    @classmethod
    def from_loads(
        cls,
        topo: Topology,
        loads: Mapping[Link, float],
        alpha: float = DEFAULT_PENALTY_ALPHA,
        exponent: float = DEFAULT_PENALTY_EXPONENT,
        clip: float = DEFAULT_UTILIZATION_CLIP,
        quant: int = PENALTY_QUANT,
    ) -> "LinkPenalty":
        """The penalty of a per-link load map (sorted, stable)."""
        obs.inc("te.penalty.builds")
        penalty = cls({}, quant)
        penalty._shape = (alpha, exponent, clip)
        for link in sorted(loads):
            u = penalty._units_at(loads[link], topo.link_capacity(link))
            if u > 0:
                penalty.units[link] = u
        return penalty

    @classmethod
    def from_load_map(cls, load_map: "LinkLoadMap", **kwargs) -> "LinkPenalty":
        """The penalty of a :class:`~repro.traffic.capacity.LinkLoadMap`."""
        return cls.from_loads(load_map.topo, load_map.loads(), **kwargs)

    def _units_at(self, load: float, capacity: Optional[float]) -> int:
        """Units of a link carrying ``load`` — the one place they are derived."""
        if capacity is None or capacity <= 0.0:
            return 0
        return penalty_units(load / capacity, *self._shape, self.quant)

    def refresh(self, load_map: "LinkLoadMap", lids: Sequence[int]) -> None:
        """Re-derive the link ids ``lids`` (whose load changed): units and lid array."""
        topo = load_map.topo
        links = topo.csr().links
        loads = load_map.lid_loads()
        capacities = topo.lid_capacities()
        lid_cache = self._lid_cache
        for lid in lids:
            u = self._units_at(loads[lid], capacities[lid])
            if u > 0:
                self.units[links[lid]] = u
            else:
                self.units.pop(links[lid], None)
            if lid_cache is not None:
                lid_cache[lid] = u
        self.version += 1
        obs.inc("te.penalty.links_refreshed", len(lids))

    def check_against(self, load_map: "LinkLoadMap") -> None:
        """Raise unless a from-scratch build of ``load_map`` equals this penalty."""
        topo = load_map.topo
        fresh = LinkPenalty.from_loads(topo, load_map.loads(), *self._shape, self.quant)
        for link in sorted(fresh.units.keys() | self.units.keys()):
            held, rebuilt = self.units.get(link, 0), fresh.units.get(link, 0)
            if held != rebuilt:
                raise SimulationError(
                    f"live link penalty drifted at {link}: {held} units, rebuilt {rebuilt}"
                )
        if self.lid_units(topo) != fresh.lid_units(topo):
            raise SimulationError("live link penalty: lid array out of step with units")

    def is_null(self) -> bool:
        """Whether nothing is penalized right now (base metric)."""
        return not self.units

    def max_units(self) -> int:
        """The largest per-link unit count (numpy exactness bound input)."""
        return max(self.units.values(), default=0)

    def lid_units(self, topo: Topology) -> List[int]:
        """The lid-indexed unit array the kernels consume (built once).

        The array is this penalty's own and :meth:`refresh` writes to it,
        so it always mirrors ``units`` — pass it to a kernel, do not keep
        it.  Bound to one topology version, like the penalty itself.
        """
        if self._lid_cache is None:
            csr = topo.csr()
            arr = [0] * csr.lid_size
            pair_lid = csr.pair_lid
            for link, u in self.units.items():
                lid = pair_lid.get((link.u, link.v))
                if lid is not None:
                    arr[lid] = u
            self._lid_cache = arr
        return self._lid_cache

    def __len__(self) -> int:
        return len(self.units)

    def __repr__(self) -> str:
        return (
            f"LinkPenalty(links={len(self.units)}, "
            f"max_units={self.max_units()}, quant={self.quant})"
        )


def recost_path(topo: Topology, path: Path) -> Path:
    """Re-cost a penalized-metric path in the base metric.

    Penalized trees carry distances in scaled units; recovery results,
    stretch, and Table III compare against base-metric optima, so every
    path leaving the penalized kernels is re-costed hop by hop (additive
    left-to-right, matching the heap kernel's accumulation order).
    """
    cost = 0.0
    for a, b in path.hops():
        cost += topo.cost(a, b)
    return Path(path.nodes, cost)


__all__ = [
    "PENALTY_QUANT",
    "DEFAULT_PENALTY_ALPHA",
    "DEFAULT_PENALTY_EXPONENT",
    "DEFAULT_UTILIZATION_CLIP",
    "LinkPenalty",
    "penalty_units",
    "recost_path",
]
