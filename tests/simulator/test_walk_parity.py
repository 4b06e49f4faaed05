"""Path parity: the window-batched runner against per-case ``recover``.

Random topologies x every registered scheme x chaos on/off, swept through
the two ways a case can run — ``EvaluationRunner.run`` (one
:class:`~repro.simulator.WalkBatch` per convergence window for schemes
that compile plans) and a plain ``instantiate`` -> ``recover`` loop.  The
full result streams must be bit-identical (floats compared via
``float.hex``).  Plus the golden Table III/IV snapshot byte check.
"""

import random

import pytest

from repro.chaos import FaultPlan, SecondaryFailure
from repro.eval import EvaluationRunner, generate_cases
from repro.schemes import scheme_names
from repro.topology.generators import geometric_isp

ALL_SCHEMES = scheme_names()

#: (nodes, links, topology seed) for the random-topology sweep — small
#: enough to keep the matrix fast, dense enough for alternate paths.
RANDOM_TOPOLOGIES = [(24, 40, 11), (40, 64, 23)]

CHAOS_PLANS = {
    "clean": None,
    "chaos": FaultPlan(
        seed=42,
        packet_loss_rate=0.08,
        secondary_failures=(SecondaryFailure(at_hop=4),),
    ),
}


def _hex(value):
    return float(value).hex()


def fingerprint(case, result):
    """Every observable bit of one case's result, floats by hex."""
    acc = result.accounting
    return (
        (case.initiator, case.destination, case.trigger),
        result.approach,
        result.status,
        result.delivered,
        None if result.path is None else tuple(result.path.nodes),
        None if result.path is None else _hex(result.path.cost),
        acc.sp_computations,
        acc.hops_traveled,
        _hex(acc.clock),
        tuple((_hex(t), b) for t, b in acc.header_timeline),
        acc.retransmissions,
        _hex(result.phase1_duration),
        result.phase1_hops,
        result.drop_hops,
        result.drop_packet_bytes,
        result.fallback,
        result.retries,
        result.error,
    )


def make_runner(topo, case_set, fault_plan):
    return EvaluationRunner(
        topo,
        routing=case_set.routing,
        approaches=ALL_SCHEMES,
        fault_plan=fault_plan,
        isolate_errors=False,
    )


def runner_sweep(topo, case_set, fault_plan):
    records = make_runner(topo, case_set, fault_plan).run(case_set)
    return {
        name: [fingerprint(r.case, r.result) for r in records[name]]
        for name in ALL_SCHEMES
    }


def per_case_sweep(topo, case_set, fault_plan):
    """(fingerprints, names of schemes the runner would have batched)."""
    schemes = make_runner(topo, case_set, fault_plan).schemes
    prints = {name: [] for name in ALL_SCHEMES}
    planned = set()
    for index, cases in sorted(case_set.by_scenario().items()):
        for name in ALL_SCHEMES:
            instance = schemes[name].instantiate(case_set.scenarios[index])
            if instance.can_plan():
                planned.add(name)
            for case in cases:
                prints[name].append(fingerprint(case, instance.recover(case)))
    return prints, planned


@pytest.mark.parametrize("chaos", sorted(CHAOS_PLANS))
@pytest.mark.parametrize("nodes,links,seed", RANDOM_TOPOLOGIES)
def test_runner_matches_per_case_recover(nodes, links, seed, chaos):
    topo = geometric_isp(nodes, links, random.Random(seed), name=f"rand{seed}")
    case_set = generate_cases(topo, random.Random(seed + 1), 24, 6)
    plan = CHAOS_PLANS[chaos]
    batched = runner_sweep(topo, case_set, plan)
    per_case, planned = per_case_sweep(topo, case_set, plan)
    for name in ALL_SCHEMES:
        assert batched[name] == per_case[name], f"{name} diverged between paths"
    # The runner must really have taken the window-batched path for some
    # scheme — otherwise this compares the per-case loop with itself.
    assert "MRC" in planned
    if plan is None:
        assert {"RTR", "r3"} <= planned


def test_golden_snapshot_byte_parity():
    """Table III/IV + Fig. 7 golden sweep: byte-identical canonical JSON,
    not just the structural diff ``tests/eval/test_golden.py`` checks."""
    import json

    from repro.eval.golden import compute_snapshot, load_snapshot

    computed = json.dumps(compute_snapshot(), sort_keys=True).encode()
    stored = json.dumps(load_snapshot(), sort_keys=True).encode()
    assert computed == stored
