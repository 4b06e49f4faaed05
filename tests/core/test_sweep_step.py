"""The flat rotation table and its by-id step, against Point-based references.

:class:`~repro.core.sweep.SweepTable` is built from flat coordinate lists;
``reference_sweep.reference_sweep_table`` builds the same four arrays from
``Point`` differences, and both must be equal — on the catalog, on
``scale:2000`` and on stars with near-tied and exactly tied bearings.  The
step must accept the first candidate of the reference sweep order that is
neither barred nor unreachable, in both directions, and name its link.
The phase-1 walks of ``scale:2000`` are pinned by hash: each hop passes
the link it arrived on to the next sweep.
"""

from __future__ import annotations

import hashlib
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RTR, RTRConfig
from repro.core.sweep import SweepTable, sweep_table
from repro.failures import FailureScenario, LocalView, circle_scenarios
from repro.topology import Topology, isp_catalog, topology_from_spec

from .reference_sweep import reference_sweep_order, reference_sweep_table
from .test_sweep_parity import stars


def assert_table_matches(topo: Topology) -> None:
    table = SweepTable(topo, topo.csr())
    for u in range(topo.csr().n):
        table.build(u)
    ring, ring_lid, slot, key_sort = reference_sweep_table(topo)
    assert table.ring == ring
    assert table.ring_lid == ring_lid
    assert table.slot == slot
    assert table.key_sort == key_sort


def assert_steps_match(topo: Topology, rng: random.Random) -> None:
    """Every arc, both directions, under random failures and barred links."""
    links = list(topo.links())
    failed = rng.sample(links, len(links) // 4)
    view = LocalView(FailureScenario(topo, failed_links=failed))
    csr = topo.csr()
    barred = bytearray(rng.random() < 0.2 for _ in range(csr.lid_size))
    table = sweep_table(topo)
    for node in topo.nodes():
        for reference in topo.neighbors(node):
            lid = csr.pair_lid[(node, reference)]
            for clockwise in (False, True):
                expected = next(
                    (
                        (nb, csr.pair_lid[(node, nb)])
                        for nb in reference_sweep_order(topo, node, reference, clockwise)
                        if not barred[csr.pair_lid[(node, nb)]]
                        and view.is_neighbor_reachable(node, nb)
                    ),
                    None,
                )
                got = table.step(view, node, reference, lid, barred, clockwise)
                assert got == expected, (node, reference, clockwise)


@pytest.mark.parametrize("spec", isp_catalog.names() + ["scale:2000"])
def test_flat_table_matches_point_reference(spec):
    assert_table_matches(topology_from_spec(spec, seed=0))


@pytest.mark.parametrize("spec", isp_catalog.names() + ["grid:6x7"])
def test_step_matches_filtered_reference_order(spec):
    assert_steps_match(topology_from_spec(spec, seed=0), random.Random(spec))


@settings(max_examples=150, deadline=None)
@given(stars(), st.integers(0, 2**32 - 1))
def test_star_tables_and_steps_match_reference(topo, seed):
    assert_table_matches(topo)
    assert_steps_match(topo, random.Random(seed))


def visited_digest(clockwise: bool) -> str:
    """sha256 of the phase-1 walks of ``scale:2000`` seed 0, three areas."""
    topo = topology_from_spec("scale:2000", seed=0)
    walks = []
    for scenario in islice(circle_scenarios(topo, random.Random(0)), 3):
        rtr = RTR(topo, scenario, config=RTRConfig(clockwise=clockwise))
        for initiator in sorted(scenario.live_nodes()):
            unreachable = rtr.view.unreachable_neighbors(initiator)
            if unreachable:
                walks.append(rtr.phase1_for(initiator, min(unreachable)).walk)
    return hashlib.sha256(repr(walks).encode()).hexdigest()


#: clockwise -> digest, taken before the walk carried link ids.
VISITED_PINS = {
    False: "d89178b1eaf8215d11b17e0b789e9de4c0b9873458bc9e4726311ba797479a5f",
    True: "042d2985c56427ac44e399d609a8fd6a9e11803a73e75e717d933e723ad455f1",
}


@pytest.mark.parametrize("clockwise", [False, True])
def test_scale_walks_match_pin(clockwise):
    assert visited_digest(clockwise) == VISITED_PINS[clockwise]
