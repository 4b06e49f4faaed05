"""``LinkLoadMap.summary`` against the separate scans it replaced.

``reference_loads`` keeps the five per-statistic passes (utilization
list, histogram, maximum, overloaded links, overload demand).  The one
pass must return exactly their values — floats compared by ``float.hex``
— on random loads with unprovisioned and zero capacities, a retired link
id, all-idle maps and thresholds other than 1.
"""

from __future__ import annotations

import random

import pytest

from repro.topology import Link, grid_topology
from repro.traffic.capacity import LinkLoadMap

from . import reference_loads


def assert_summary_matches(loads: LinkLoadMap, threshold: float) -> None:
    summary = loads.summary(threshold)
    assert summary.histogram == reference_loads.utilization_histogram(loads)
    assert summary.max_utilization.hex() == reference_loads.max_utilization(loads).hex()
    expected = reference_loads.overloaded_links(loads, threshold)
    assert [(link, util.hex()) for link, util in summary.overloaded] == [
        (link, util.hex()) for link, util in expected
    ]
    assert summary.overload_demand.hex() == (
        reference_loads.overload_demand(loads, threshold).hex()
    )


def random_loads(seed: int) -> LinkLoadMap:
    """A 6x6 grid with one link retired, random capacities and loads.

    A quarter of the links are unprovisioned (``None``), a few have a zero
    capacity written straight into the topology's list (no setter takes
    one), and a fifth carry no load; the retired id carries load.
    """
    rng = random.Random(seed)
    topo = grid_topology(6, 6)
    retired = topo.link_index(Link.of(0, 1))
    topo.remove_link(0, 1)
    for link in topo.links():
        if rng.random() < 0.75:
            topo.set_link_capacity(link, rng.uniform(0.5, 20.0))
    capacities = topo.lid_capacities()
    for lid in rng.sample(range(len(capacities)), 3):
        if capacities[lid] is not None:
            capacities[lid] = 0.0
    loads = LinkLoadMap(topo)
    csr = topo.csr()
    for lid in range(csr.lid_size):
        if lid == retired or rng.random() < 0.8:
            loads.add_lids([lid], rng.expovariate(0.2))
    return loads


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("threshold", [1.0, 0.5, 1.5, 3.25])
def test_random_loads_match_reference(seed, threshold):
    assert_summary_matches(random_loads(seed), threshold)


def test_retired_link_is_binned_nowhere_but_summed():
    topo = grid_topology(3, 3)
    retired = topo.link_index(Link.of(0, 1))
    topo.remove_link(0, 1)
    for link in topo.links():
        topo.set_link_capacity(link, 1.0)
    loads = LinkLoadMap(topo)
    loads.add_lids([retired], 5.0)  # no capacity: idle, and not a link
    assert_summary_matches(loads, 1.0)
    assert sum(loads.summary().histogram) == topo.link_count


@pytest.mark.parametrize("threshold", [1.0, 0.25])
def test_all_idle_map(threshold):
    topo = grid_topology(4, 4)
    for link in topo.links():
        topo.set_link_capacity(link, 2.0)
    loads = LinkLoadMap(topo)
    assert_summary_matches(loads, threshold)
    summary = loads.summary(threshold)
    assert summary[1:] == (0.0, [], 0.0)
    assert summary.histogram[0] == topo.link_count


def test_overloaded_and_overload_demand_keep_their_own_predicates():
    """``load / capacity > t`` and ``load > t * capacity`` differ in rounding.

    At capacity 10 and threshold 1.1, a load one ulp above 11 has
    utilization 1.1 (not overloaded) but exceeds ``1.1 * 10`` by a sliver.
    """
    topo = grid_topology(2, 2)
    for link in topo.links():
        topo.set_link_capacity(link, 10.0)
    loads = LinkLoadMap(topo)
    loads.add_lids([0], float.fromhex("0x1.6000000000001p+3"))
    assert_summary_matches(loads, 1.1)
    summary = loads.summary(1.1)
    assert summary.overloaded == [] and summary.overload_demand > 0.0
