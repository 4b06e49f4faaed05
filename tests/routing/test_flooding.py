"""The packetized flooding oracle agrees with the analytic LSA timeline."""

import random

import pytest

from repro.failures import FailureScenario, random_circle
from repro.routing import ConvergenceConfig, LinkStateProtocol
from repro.topology import Link, isp_catalog

from .flooding_oracle import FloodingSimulator


def run_both(topo, failed_nodes, failed_links, config=None):
    config = config or ConvergenceConfig()
    analytic = LinkStateProtocol(topo, config).apply_failure(
        set(failed_nodes), set(failed_links)
    )
    simulated = FloodingSimulator(topo, set(failed_nodes), set(failed_links), config).run()
    return analytic, simulated


class TestAgainstAnalyticModel:
    def test_single_link_failure_agrees(self, ring8):
        analytic, simulated = run_both(ring8, set(), {Link.of(0, 1)})
        assert simulated.router_converged_at.keys() == analytic.router_converged_at.keys()
        for router, t in analytic.router_converged_at.items():
            assert simulated.router_converged_at[router] == pytest.approx(t)
        assert simulated.network_converged_at == pytest.approx(
            analytic.network_converged_at
        )

    def test_node_failure_agrees(self, grid5):
        analytic, simulated = run_both(grid5, {12}, set())
        for router, t in analytic.router_converged_at.items():
            assert simulated.router_converged_at[router] == pytest.approx(t)

    @pytest.mark.parametrize("seed", range(3))
    def test_area_failures_agree_on_isp_topology(self, seed):
        topo = isp_catalog.build("AS1239", seed=0)
        rng = random.Random(seed)
        scenario = FailureScenario.from_region(topo, random_circle(rng))
        if not scenario.failed_links:
            pytest.skip("harmless area")
        analytic, simulated = run_both(
            topo, scenario.failed_nodes, scenario.failed_links
        )
        for router, t in analytic.router_converged_at.items():
            assert simulated.router_converged_at[router] == pytest.approx(t), router


class TestFloodingMechanics:
    def test_detectors_match_adjacency(self, ring8):
        sim = FloodingSimulator(ring8, {3}, {Link.of(2, 3), Link.of(3, 4)})
        assert sim.detectors() == {2, 4}

    def test_every_live_router_hears_every_detector(self, grid5):
        sim = FloodingSimulator(grid5, set(), {Link.of(12, 13)})
        report = sim.run()
        for router, arrivals in report.arrival_times.items():
            assert set(arrivals) == {12, 13}, router

    def test_messages_bounded_by_lsas_times_links(self, grid5):
        sim = FloodingSimulator(grid5, set(), {Link.of(12, 13)})
        report = sim.run()
        # Each of the 2 LSAs crosses each usable link at most twice.
        assert 0 < report.messages_sent <= 2 * 2 * grid5.link_count

    def test_duplicates_happen_in_meshes(self, grid5):
        # A grid has many equal-length flood paths: duplicates must occur.
        report = FloodingSimulator(grid5, set(), {Link.of(12, 13)}).run()
        assert report.duplicates_received > 0

    def test_no_messages_without_failures(self, ring8):
        report = FloodingSimulator(ring8, set(), set()).run()
        assert report.messages_sent == 0
        assert all(
            t == pytest.approx(ConvergenceConfig().spf_time)
            for t in report.router_converged_at.values()
        )

    def test_lsas_do_not_cross_failed_links(self, tiny_line):
        report = FloodingSimulator(tiny_line, set(), {Link.of(1, 2)}).run()
        # Node 2 is partitioned: it hears only its own detection... node 2
        # is itself a detector, so its only arrival is its own LSA.
        assert set(report.arrival_times[2]) == {2}
        # Nodes 0 and 1 never hear node 2's LSA.
        assert 2 not in report.arrival_times[0]
        assert 2 not in report.arrival_times[1]

    def test_partitioned_sides_converge_independently(self, tiny_line):
        report = FloodingSimulator(tiny_line, set(), {Link.of(1, 2)}).run()
        cfg = ConvergenceConfig()
        expected_detector = cfg.detection_delay + cfg.lsa_hold_down + cfg.spf_time
        assert report.router_converged_at[2] == pytest.approx(expected_detector)
