"""``generate_cases`` against its executable spec, and what it may cost.

``reference_cases`` classifies every case of every failure area and
filters afterwards; the production generator stops at the case that
fills the quotas and reads every destination of one initiator from one
oracle tree.  These tests pin that the difference is invisible (same
scenarios, same cases, same RNG state), that it is real (at most one
``SPTCache`` probe per initiator visited), and the recorded Dijkstra
count of the pinned Table III sweep.
"""

import random

import pytest

import repro.eval.cases as cases_module
from repro import obs
from repro.errors import SimulationError
from repro.eval import generate_cases
from repro.eval.experiments import table3_recoverable
from repro.routing import RoutingTable, SPTCache, dijkstra_run_count
from repro.topology import isp_catalog

from .reference_cases import reference_generate_cases

QUOTAS = ((10, 0), (0, 10), (25, 25))
SEEDS = (0, 5)


def case_key(case):
    cost = None if case.optimal_cost is None else case.optimal_cost.hex()
    return (
        case.scenario_index,
        case.initiator,
        case.destination,
        case.trigger,
        case.recoverable,
        cost,
    )


def scenario_key(scenario):
    region = scenario.region
    return (
        scenario.failed_nodes,
        scenario.failed_links,
        (region.center.x.hex(), region.center.y.hex(), region.radius.hex()),
    )


@pytest.fixture
def obs_counters():
    """Instrumentation on for one test; yields a reader of the counters."""
    prior = obs.enabled()
    obs.enable()
    obs.reset()
    yield lambda: obs.metrics.snapshot()["counters"]
    obs.reset()
    if not prior:
        obs.disable()


@pytest.fixture(scope="module", params=isp_catalog.names())
def site(request):
    """One catalog AS with a fully built routing table on a shared cache."""
    topo = isp_catalog.build(request.param, seed=0)
    cache = SPTCache()
    routing = RoutingTable(topo, cache=cache)
    routing.precompute_all()
    return topo, routing, cache


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("quota", QUOTAS)
def test_same_cases_scenarios_and_rng_state(site, quota, seed):
    topo, routing, cache = site
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = generate_cases(topo, rng, *quota, routing=routing, cache=cache)
    want = reference_generate_cases(topo, ref_rng, *quota)
    assert [case_key(c) for c in got.cases] == [case_key(c) for c in want.cases]
    assert [scenario_key(s) for s in got.scenarios] == [
        scenario_key(s) for s in want.scenarios
    ]
    assert rng.getstate() == ref_rng.getstate()
    assert (len(got.recoverable_cases()), len(got.irrecoverable_cases())) == quota


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("quota", QUOTAS)
def test_stops_at_the_filling_case_one_probe_per_initiator(
    site, quota, seed, monkeypatch, obs_counters
):
    topo, routing, cache = site
    visited = set()
    pulled = []
    scenarios = []  # dropped areas too: an ``id()`` must not be recycled
    enumerate_cases = cases_module.enumerate_scenario_cases

    def spy(topo, routing, scenario, *args):
        scenarios.append(scenario)
        for case in enumerate_cases(topo, routing, scenario, *args):
            visited.add((id(scenario), case.initiator))
            pulled.append(case)
            yield case

    monkeypatch.setattr(cases_module, "enumerate_scenario_cases", spy)
    before = cache.hits + cache.misses
    got = generate_cases(topo, random.Random(seed), *quota, routing=routing, cache=cache)
    counters = obs_counters()
    # Nothing is classified after the case that fills the quotas ...
    assert pulled[-1] is got.cases[-1]
    assert counters["eval.case_gen.enumerated"] == len(pulled)
    assert counters["eval.case_gen.kept"] == len(got.cases) == sum(quota)
    # ... and every initiator's destinations are read from one tree.
    assert cache.hits + cache.misses - before <= len(visited)


def test_exhausted_scenario_budget_is_an_error_not_a_short_case_set():
    # Three areas cannot yield 10,000 irrecoverable cases; the old
    # generator returned the few it had without a word.
    topo = isp_catalog.build("AS209", seed=0)
    with pytest.raises(SimulationError, match=r"asked for 0 recoverable / 10000") as err:
        generate_cases(topo, random.Random(0), 0, 10_000, max_scenarios=3)
    assert "after 3 failure areas" in str(err.value)
    assert "\n" not in str(err.value)


def test_pinned_table3_sweep_dijkstra_runs():
    """The kernel count of the pinned sweep (402 before quota-bounded draws)."""
    before = dijkstra_run_count()
    table3_recoverable(("AS209", "AS1239", "AS3549"), n_cases=120, seed=0)
    assert dijkstra_run_count() - before == 352
