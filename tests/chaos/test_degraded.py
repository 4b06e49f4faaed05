"""Tests for repro.chaos.degraded (false-negative and late detection)."""

from repro.chaos import ChaosRuntime, DegradedLocalView, FaultPlan, SecondaryFailure
from repro.failures import FailureScenario, LocalView
from repro.topology import Link


def test_null_plan_matches_ideal_view(paper_scenario):
    degraded = DegradedLocalView(paper_scenario, FaultPlan())
    ideal = LocalView(paper_scenario)
    for node in paper_scenario.live_nodes():
        assert sorted(degraded.unreachable_neighbors(node)) == sorted(
            ideal.unreachable_neighbors(node)
        )


def test_missed_adjacencies_read_reachable_forever(paper_scenario):
    plan = FaultPlan(seed=3, detection_miss_rate=1.0)
    view = DegradedLocalView(paper_scenario, plan)
    ideal = LocalView(paper_scenario)
    assert view.missed
    for node, neighbor in view.missed:
        assert not ideal.is_neighbor_reachable(node, neighbor)
        assert view.is_neighbor_reachable(node, neighbor)
    # No failed adjacency is detected anywhere: phase 1 has nothing to see.
    for node in paper_scenario.live_nodes():
        assert view.unreachable_neighbors(node) == []


def test_delayed_detection_flips_with_hop_clock(paper_scenario):
    plan = FaultPlan(seed=3, detection_delay_rate=1.0, detection_delay_hops=4)
    runtime = ChaosRuntime(plan, paper_scenario)
    view = DegradedLocalView(paper_scenario, plan, runtime)
    delayed = view.delayed
    assert delayed
    node, neighbor = sorted(delayed)[0]
    assert view.is_neighbor_reachable(node, neighbor)  # not yet detected
    for _ in range(4):
        runtime.on_hop()
    assert not view.is_neighbor_reachable(node, neighbor)  # now detected


def test_miss_and_delay_sampling_is_deterministic(paper_scenario):
    plan = FaultPlan(seed=11, detection_miss_rate=0.3,
                     detection_delay_rate=0.3, detection_delay_hops=2)
    a = DegradedLocalView(paper_scenario, plan)
    b = DegradedLocalView(paper_scenario, plan)
    assert a.missed == b.missed
    assert a.delayed == b.delayed


def test_flapped_link_reads_unreachable_immediately(ring8):
    scenario = FailureScenario(ring8, failed_links=[Link.of(0, 1)])
    plan = FaultPlan(
        seed=1, secondary_failures=(SecondaryFailure(at_hop=1, link=(4, 5)),)
    )
    runtime = ChaosRuntime(plan, scenario)
    view = DegradedLocalView(scenario, plan, runtime)
    assert view.is_neighbor_reachable(4, 5)
    runtime.on_hop()  # flap activates
    assert not view.is_neighbor_reachable(4, 5)
    assert not view.is_neighbor_reachable(5, 4)
    assert 5 in view.unreachable_neighbors(4)


def test_unreachable_neighbors_not_cached_across_flap(ring8):
    # The base LocalView caches neighbor lists; the degraded view must not,
    # because its answers drift with the runtime hop clock.
    scenario = FailureScenario(ring8, failed_links=[Link.of(0, 1)])
    plan = FaultPlan(
        seed=1, secondary_failures=(SecondaryFailure(at_hop=1, link=(4, 5)),)
    )
    runtime = ChaosRuntime(plan, scenario)
    view = DegradedLocalView(scenario, plan, runtime)
    before = view.unreachable_neighbors(4)
    assert before == []
    runtime.on_hop()
    assert view.unreachable_neighbors(4) == [5]
