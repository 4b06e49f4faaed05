"""Tests for repro.core.exhaustive (the complete-collection alternative)."""

import random

import pytest

from repro.schemes.oracle import Oracle
from repro.core import RTR, RTRConfig
from repro.core.exhaustive import run_exhaustive_phase1
from repro.errors import SimulationError
from repro.failures import FailureScenario, LocalView, random_circle
from repro.simulator import ForwardingEngine
from repro.topology import Link, geometric_isp


def run(topo, scenario, initiator, trigger):
    view = LocalView(scenario)
    engine = ForwardingEngine(topo, view)
    return run_exhaustive_phase1(topo, view, initiator, trigger, engine)


class TestCompleteness:
    def test_collects_every_detectable_failure(self, paper_topo, paper_scenario):
        result = run(paper_topo, paper_scenario, 6, 11)
        known = set(result.all_known_failed_links())
        assert known == set(paper_scenario.failed_links)

    def test_visits_whole_component(self, paper_topo, paper_scenario):
        result = run(paper_topo, paper_scenario, 6, 11)
        live_component = paper_topo.component_of(
            6,
            excluded_nodes=set(paper_scenario.failed_nodes),
            excluded_links=set(paper_scenario.failed_links),
        )
        assert set(result.walk) == live_component

    @pytest.mark.parametrize("seed", range(4))
    def test_complete_on_random_scenarios(self, seed):
        rng = random.Random(seed)
        topo = geometric_isp(25, 50, rng)
        scenario = FailureScenario.from_region(topo, random_circle(rng))
        view = LocalView(scenario)
        for initiator in sorted(scenario.live_nodes()):
            unreachable = view.unreachable_neighbors(initiator)
            if not unreachable:
                continue
            result = run(topo, scenario, initiator, unreachable[0])
            component = topo.component_of(
                initiator,
                excluded_nodes=set(scenario.failed_nodes),
                excluded_links=set(scenario.failed_links),
            )
            expected = {
                link
                for node in component
                for link in (
                    Link.of(node, nb)
                    for nb in LocalView(scenario).unreachable_neighbors(node)
                )
            }
            assert set(result.all_known_failed_links()) == expected
            break


class TestWalkShape:
    def test_returns_to_initiator(self, paper_topo, paper_scenario):
        result = run(paper_topo, paper_scenario, 6, 11)
        assert result.walk[0] == result.walk[-1] == 6

    def test_dfs_bound(self, paper_topo, paper_scenario):
        # A DFS tree traversal: at most 2 * (component size - 1) hops.
        result = run(paper_topo, paper_scenario, 6, 11)
        component = paper_topo.component_of(
            6,
            excluded_nodes=set(paper_scenario.failed_nodes),
            excluded_links=set(paper_scenario.failed_links),
        )
        assert result.hops <= 2 * (len(component) - 1)

    def test_longer_than_sweep(self, paper_topo, paper_scenario):
        # The paper's argument for the sweep: exhaustive walks are longer.
        from repro.core import run_phase1

        view = LocalView(paper_scenario)
        engine = ForwardingEngine(paper_topo, view)
        sweep = run_phase1(paper_topo, view, 6, 11, engine)
        exhaustive = run(paper_topo, paper_scenario, 6, 11)
        assert exhaustive.hops > sweep.hops

    def test_requires_unreachable_trigger(self, paper_topo, paper_scenario):
        with pytest.raises(SimulationError):
            run(paper_topo, paper_scenario, 6, 7)


class TestRtrIntegration:
    def test_collector_config(self, paper_topo, paper_scenario):
        rtr = RTR(
            paper_topo, paper_scenario, config=RTRConfig(collector="exhaustive")
        )
        result = rtr.recover(6, 17, 11)
        assert result.delivered
        assert list(result.path.nodes) == [6, 5, 12, 18, 17]

    def test_unknown_collector_rejected(self):
        with pytest.raises(ValueError):
            RTRConfig(collector="psychic")

    def test_exhaustive_recovers_everything_recoverable(self):
        # With complete information RTR delivers every recoverable case
        # (the phase-2 route can only contain live links).
        rng = random.Random(9)
        topo = geometric_isp(30, 60, rng)
        for _ in range(5):
            scenario = FailureScenario.from_region(topo, random_circle(rng))
            if not scenario.failed_links:
                continue
            rtr = RTR(topo, scenario, config=RTRConfig(collector="exhaustive"))
            oracle = Oracle(topo, scenario)
            view = LocalView(scenario)
            for initiator in sorted(scenario.live_nodes()):
                unreachable = set(view.unreachable_neighbors(initiator))
                if not unreachable:
                    continue
                for destination in sorted(scenario.live_nodes()):
                    nh = rtr.routing.next_hop(initiator, destination)
                    if nh not in unreachable:
                        continue
                    result = rtr.recover(initiator, destination, nh)
                    recoverable = oracle.is_recoverable(initiator, destination)
                    assert result.delivered == recoverable
                    if result.delivered:
                        assert result.path.cost == oracle.optimal_cost(
                            initiator, destination
                        )
