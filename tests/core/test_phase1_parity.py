"""Pinned phase-1 results: every field of every walk, clean and under faults.

Three scenarios on each of the paper's example graph, AS7018 and
``scale:2000``; every live router whose view detects an unreachable
neighbor runs its phase-1 walk, triggered by the smallest such neighbor.
The sha256 of the stream of :class:`~repro.core.phase1.Phase1Result` fields (floats
via ``float.hex``) must equal its pin.  The ``chaos`` run adds header
truncation and detection misses on the two smaller graphs, which exercises
the ``cross_link`` state after the header has lost entries and the per-hop
``field_trace``.

To re-pin after a deliberate behaviour change, run this module as a
script (``PYTHONPATH=src python tests/core/test_phase1_parity.py``) and
paste the printed table over :data:`PINS`.
"""

import functools
import hashlib
import random
from itertools import islice

import pytest

from repro.chaos import FaultPlan
from repro.core import RTR
from repro.failures import circle_scenarios
from repro.topology import isp_catalog, topology_from_spec
from repro.topology.examples import paper_figure_topology

#: name -> (topology builder, scenario seed).
TOPOLOGIES = {
    "paper": (paper_figure_topology, 3),
    "AS7018": (lambda: isp_catalog.build("AS7018", seed=0), 7018),
    "scale2000": (lambda: topology_from_spec("scale:2000", seed=0), 2000),
}

#: name -> fault plan of one run (``None``: the idealized world).
RUNS = {
    "clean": None,
    "chaos": FaultPlan(seed=5, header_corruption_rate=0.3, detection_miss_rate=0.25),
}

#: The pinned (topology, run) cells; ``scale2000`` runs clean only.
CELLS = [(topology, run) for topology in TOPOLOGIES for run in RUNS]
CELLS.remove(("scale2000", "chaos"))

#: (topology, run) -> sha256 of the Phase1Result stream.
PINS = {
    ('paper', 'clean'): 'ad4f931704853711a06c01d6ddcf4a2429dcd520dba6b3f850eac11938635e6b',
    ('paper', 'chaos'): '5f5a30db056d8a5913d48816996bb40464342ef8ea9b3746649db317465bb872',
    ('AS7018', 'clean'): '3e02b26c4cec5930cfeb969edfed8e081d1cfc99aa6c97016b567b450f18153c',
    ('AS7018', 'chaos'): '4d53fc684851b83bbd72bf7fbe64c3ba3f1139680ca0ad2ff1a3e5a7ff0de049',
    ('scale2000', 'clean'): '196deb99b4e490abccb140e72eab7c8005ab243b89263fb7990d1f4559d28331',
}


def _hex(value):
    return float(value).hex()


def _fields(field_trace):
    """``field_trace`` as its distinct header fields plus index rows.

    The same content as the trace (each snapshot is ``(node, index of its
    failed_link field, index of its cross_link field)``) at a fraction of
    the ``repr``: the fields grow by a few entries per hop.
    """
    table = {}
    rows = tuple(
        (node, table.setdefault(failed, len(table)), table.setdefault(crossed, len(table)))
        for node, failed, crossed in field_trace
    )
    return tuple(table), rows


def fingerprint(result):
    """Every field of one phase-1 result, floats by hex."""
    return (
        result.initiator,
        tuple(result.walk),
        tuple(result.collected_failed_links),
        tuple(result.cross_links),
        tuple(result.local_failed_links),
        result.hops,
        _hex(result.duration),
        tuple((_hex(t), b) for t, b in result.header_timeline),
        _fields(result.field_trace),
        result.complete,
        result.incomplete_reason,
        result.retries,
    )


@functools.lru_cache(maxsize=None)
def _scenarios(topology):
    build, seed = TOPOLOGIES[topology]
    topo = build()
    return topo, list(islice(circle_scenarios(topo, random.Random(seed)), 3))


def stream_digest(topology, run):
    """sha256 of the phase-1 results of every initiator of every scenario."""
    topo, scenarios = _scenarios(topology)
    stream = []
    for scenario in scenarios:
        rtr = RTR(topo, scenario, fault_plan=RUNS[run])
        for initiator in sorted(scenario.live_nodes()):
            unreachable = rtr.view.unreachable_neighbors(initiator)
            if unreachable:
                stream.append(fingerprint(rtr.phase1_for(initiator, min(unreachable))))
    return hashlib.sha256(repr(stream).encode()).hexdigest()


@pytest.mark.parametrize("topology,run", CELLS)
def test_phase1_results_match_pin(topology, run):
    assert stream_digest(topology, run) == PINS[(topology, run)]


if __name__ == "__main__":  # pragma: no cover - re-pinning helper
    for topology, run in CELLS:
        print(f"    ({topology!r}, {run!r}): {stream_digest(topology, run)!r},")
