"""The phase-1 walk bound, link by link: no completed clean walk traverses a
directed link twice.

Theorem 1 bounds a walk by twice the link count because each link is
traversed at most once per direction; this checks the per-link statement
itself.  Every live router that detects an unreachable neighbor walks,
on three circle scenarios of each Table II AS and of ``scale:2000`` —
the phase-1 parity module's scenarios, and its cached clean results
where it has them.
"""

import random
from itertools import islice

import pytest

from repro.failures import circle_scenarios
from repro.topology import isp_catalog

from .test_phase1_parity import TOPOLOGIES, cell_results, initiator_results


def repeated_directed_links(walk):
    """Directed links ``(u, v)`` the walk traverses more than once."""
    seen, repeated = set(), []
    for hop in zip(walk, walk[1:]):
        if hop in seen:
            repeated.append(hop)
        seen.add(hop)
    return repeated


def results_of(name):
    if name in TOPOLOGIES:
        return cell_results(name, "clean")
    topo = isp_catalog.build(name, seed=0)
    scenarios = list(islice(circle_scenarios(topo, random.Random(int(name[2:]))), 3))
    return initiator_results(topo, scenarios)


@pytest.mark.parametrize("name", isp_catalog.names() + ["scale2000"])
def test_no_directed_link_twice(name):
    results = results_of(name)
    assert any(result.hops for result in results)
    for result in results:
        assert result.complete
        assert repeated_directed_links(result.walk) == [], result.initiator
