"""Tests for repro.core.phase1 (the failure-information collection walk)."""

import pytest

from repro.core import run_phase1
from repro.errors import SimulationError
from repro.failures import FailureScenario, LocalView
from repro.simulator import ForwardingEngine
from repro.topology import Link


def make_engine(scenario):
    return ForwardingEngine(scenario.topo, LocalView(scenario))


def phase1(topo, scenario, initiator, trigger, **kwargs):
    view = LocalView(scenario)
    engine = ForwardingEngine(topo, view)
    return run_phase1(topo, view, initiator, trigger, engine, **kwargs)


class TestWalkStructure:
    def test_walk_returns_to_initiator(self, paper_topo, paper_scenario):
        result = phase1(paper_topo, paper_scenario, 6, 11)
        assert result.walk[0] == 6
        assert result.walk[-1] == 6
        assert result.hops == len(result.walk) - 1

    def test_requires_unreachable_trigger(self, paper_topo, paper_scenario):
        with pytest.raises(SimulationError):
            phase1(paper_topo, paper_scenario, 6, 7)

    def test_isolated_initiator_empty_walk(self, tiny_line):
        scenario = FailureScenario(tiny_line, failed_nodes=[1])
        result = phase1(tiny_line, scenario, 0, 1)
        assert result.walk == [0]
        assert result.hops == 0
        assert result.duration == 0.0
        assert result.local_failed_links == [Link.of(0, 1)]

    def test_single_live_neighbor_out_and_back(self, ring8):
        # With e0,1 cut the ring is a line; node 1 cannot close the loop,
        # so the packet walks to the far end and retraces: 2 * 7 hops.
        scenario = FailureScenario(ring8, failed_links=[Link.of(0, 1)])
        result = phase1(ring8, scenario, 0, 1)
        assert result.walk[0] == result.walk[-1] == 0
        assert result.walk == [0, 7, 6, 5, 4, 3, 2, 1, 2, 3, 4, 5, 6, 7, 0]
        assert result.hops == 14

    def test_duration_is_hops_times_1_8ms(self, paper_topo, paper_scenario):
        result = phase1(paper_topo, paper_scenario, 6, 11)
        assert result.duration == pytest.approx(result.hops * 1.8e-3)


class TestInformationCollected:
    def test_collected_subset_of_ground_truth(self, paper_topo, paper_scenario):
        # E1 subset of E2 — the precondition of Theorem 2.
        result = phase1(paper_topo, paper_scenario, 6, 11)
        assert set(result.collected_failed_links) <= set(paper_scenario.failed_links)

    def test_initiator_incident_links_not_in_header(
        self, paper_topo, paper_scenario
    ):
        # §III-B item 3: the initiator's own failures are not recorded.
        result = phase1(paper_topo, paper_scenario, 6, 11)
        for link in result.collected_failed_links:
            assert 6 not in (link.u, link.v)

    def test_all_known_includes_local(self, paper_topo, paper_scenario):
        result = phase1(paper_topo, paper_scenario, 6, 11)
        known = set(result.all_known_failed_links())
        assert Link.of(6, 11) in known
        assert known == set(result.collected_failed_links) | {Link.of(6, 11)}

    def test_no_live_link_ever_reported(self, paper_topo, paper_scenario):
        result = phase1(paper_topo, paper_scenario, 6, 11)
        for link in result.all_known_failed_links():
            assert not paper_scenario.is_link_live(link)

    def test_header_timeline_monotone(self, paper_topo, paper_scenario):
        result = phase1(paper_topo, paper_scenario, 6, 11)
        times = [t for t, _ in result.header_timeline]
        assert times == sorted(times)
        assert len(times) == result.hops


class TestConstraintToggle:
    def test_constraints_off_changes_walk_on_general_graph(
        self, paper_topo, paper_scenario
    ):
        # The ablation of DESIGN.md §4: without Constraints 1-2 the walk
        # suffers the Fig. 4 disorder and takes a different (worse) tour.
        with_c = phase1(paper_topo, paper_scenario, 6, 11)
        without_c = phase1(
            paper_topo, paper_scenario, 6, 11, use_constraints=False
        )
        assert with_c.walk != without_c.walk

    def test_constraints_off_misses_failures(self, paper_topo, paper_scenario):
        # Without the constraints the disordered walk collects less.
        without_c = phase1(
            paper_topo, paper_scenario, 6, 11, use_constraints=False
        )
        with_c = phase1(paper_topo, paper_scenario, 6, 11)
        assert len(without_c.collected_failed_links) <= len(
            with_c.collected_failed_links
        )

    def test_constraints_irrelevant_on_planar_graph(self, paper_planar):
        # On a planar embedding no link crosses another, so the constraint
        # machinery cannot change the walk.
        region = __import__(
            "repro.topology.examples", fromlist=["PAPER_FAILURE_REGION"]
        ).PAPER_FAILURE_REGION
        scenario = FailureScenario.from_region(paper_planar, region)
        view = LocalView(scenario)
        trigger = next(iter(view.unreachable_neighbors(6)), None)
        if trigger is None:
            pytest.skip("planarized variant lost v6's failed link")
        a = phase1(paper_planar, scenario, 6, trigger)
        b = phase1(paper_planar, scenario, 6, trigger, use_constraints=False)
        assert a.walk == b.walk


class TestClockwiseAblation:
    def test_clockwise_walk_also_terminates(self, paper_topo, paper_scenario):
        result = phase1(paper_topo, paper_scenario, 6, 11, clockwise=True)
        assert result.walk[0] == result.walk[-1] == 6

    def test_clockwise_differs_from_ccw(self, paper_topo, paper_scenario):
        ccw = phase1(paper_topo, paper_scenario, 6, 11)
        cw = phase1(paper_topo, paper_scenario, 6, 11, clockwise=True)
        assert ccw.walk != cw.walk


class TestStrandedWalk:
    """A walk that cannot go on is incomplete, not complete."""

    @staticmethod
    def star_world():
        # Hub 0 with leaves 1 (east), 2 (west) and 3 (north); link 0-3 is
        # down, and 0-1 and 0-2 fail right after the first hop leaves 0.
        from repro.chaos import FaultPlan, SecondaryFailure, forwarding_world
        from repro.geometry import Point
        from repro.topology import Topology

        topo = Topology("star")
        for node, (x, y) in enumerate([(0, 0), (1, 0), (-1, 0), (0, 1)]):
            topo.add_node(node, Point(x, y))
        for leaf in (1, 2, 3):
            topo.add_link(0, leaf)
        scenario = FailureScenario(topo, failed_links=[Link.of(0, 3)])
        plan = FaultPlan(
            secondary_failures=(
                SecondaryFailure(at_hop=1, link=(0, 1)),
                SecondaryFailure(at_hop=1, link=(0, 2)),
            )
        )
        view, engine = forwarding_world(topo, scenario, plan)
        return topo, view, engine

    def test_stranded_walk_is_incomplete(self):
        topo, view, engine = self.star_world()
        result = run_phase1(topo, view, 0, 3, engine, strict=False)
        assert result.walk == [0, 2]
        assert not result.complete
        assert result.incomplete_reason == (
            "phase-1 walk of 0 stranded at 2: no live, non-excluded neighbor"
        )

    def test_strict_stranded_walk_raises(self):
        topo, view, engine = self.star_world()
        with pytest.raises(SimulationError, match="stranded at 2"):
            run_phase1(topo, view, 0, 3, engine)
