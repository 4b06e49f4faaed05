"""The ISP topology catalog of Table II.

The paper evaluates on eight Rocketfuel-derived ISP topologies (Table II).
This catalog reproduces each of them as a synthetic geometric topology with
**exactly** the published node and link counts (see DESIGN.md §2 for why
this substitution is faithful).  Two additional profiles (AS2914, AS3356)
appear only in the labels of Figs. 12-13; they are included as *extended*
profiles with documented representative sizes.

Profiles are deterministic: ``build(name, seed)`` always returns the same
topology for the same seed, so experiments are reproducible.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, NamedTuple

from ..errors import EvaluationError
from .graph import Topology
from .generators import geometric_isp


class IspProfile(NamedTuple):
    """Size and generator parameters for one AS of Table II."""

    name: str
    n_nodes: int
    n_links: int
    #: Waxman locality: lower = more geometric (short links).  Dense meshes
    #: like AS3549 need a higher value or the extra links pile up locally.
    locality: float
    #: Whether this AS appears in Table II (False for the Fig. 12-13 extras).
    in_table2: bool = True


#: Table II of the paper, in publication order.
TABLE2_PROFILES: List[IspProfile] = [
    IspProfile("AS209", 58, 108, 0.22),
    IspProfile("AS701", 83, 219, 0.22),
    IspProfile("AS1239", 52, 84, 0.20),
    IspProfile("AS3320", 70, 355, 0.30),
    IspProfile("AS3549", 61, 486, 0.35),
    IspProfile("AS3561", 92, 329, 0.28),
    IspProfile("AS4323", 51, 161, 0.25),
    IspProfile("AS7018", 115, 148, 0.18),
]

#: ASes named only in the CDF labels of Figs. 12-13; sizes are representative
#: Rocketfuel-scale guesses (documented substitution, DESIGN.md §2).
EXTENDED_PROFILES: List[IspProfile] = [
    IspProfile("AS2914", 110, 180, 0.20, in_table2=False),
    IspProfile("AS3356", 63, 285, 0.30, in_table2=False),
]

ALL_PROFILES: List[IspProfile] = TABLE2_PROFILES + EXTENDED_PROFILES

_PROFILE_BY_NAME: Dict[str, IspProfile] = {p.name: p for p in ALL_PROFILES}


def profile(name: str) -> IspProfile:
    """The profile for AS ``name`` (e.g. ``"AS1239"``)."""
    try:
        return _PROFILE_BY_NAME[name]
    except KeyError:
        raise EvaluationError(
            f"unknown ISP profile {name!r}; known: {sorted(_PROFILE_BY_NAME)}"
        ) from None


def names(include_extended: bool = False) -> List[str]:
    """Catalog AS names, Table II order."""
    profiles = ALL_PROFILES if include_extended else TABLE2_PROFILES
    return [p.name for p in profiles]


def build(name: str, seed: int = 0) -> Topology:
    """Build the catalog topology for AS ``name`` with the given seed.

    The returned topology is connected, has exactly the Table II node and
    link counts, unit link costs (the paper routes on hop count), and nodes
    placed in the 2000 x 2000 simulation area.
    """
    prof = profile(name)
    # zlib.crc32 is stable across processes (unlike hash(), which is salted).
    rng = random.Random(zlib.crc32(name.encode()) * 1_000_003 + seed)
    topo = geometric_isp(
        prof.n_nodes,
        prof.n_links,
        rng,
        name=f"{prof.name}-seed{seed}",
        locality=prof.locality,
    )
    assert topo.is_connected()
    return topo


def summary_rows(include_extended: bool = False) -> List[Dict[str, object]]:
    """Rows of Table II: AS name, node count, link count."""
    profiles = ALL_PROFILES if include_extended else TABLE2_PROFILES
    return [
        {"topology": p.name, "nodes": p.n_nodes, "links": p.n_links}
        for p in profiles
    ]
