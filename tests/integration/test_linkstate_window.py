"""Integration of RTR with the IGP convergence model.

§II-B: RTR operates only during IGP convergence; once every router's table
is valid, the link-state protocol takes over.  These tests tie the pieces
together: the recovery window is real (seconds), RTR's first phase is three
orders of magnitude faster, and the post-convergence tables route exactly
where the oracle says.
"""

import random

import pytest

from repro import RTR, FailureScenario, LinkStateProtocol, Oracle, isp_catalog, random_circle
from repro.failures import LocalView


@pytest.fixture(scope="module")
def setting():
    topo = isp_catalog.build("AS701", seed=1)
    rng = random.Random(13)
    scenario = FailureScenario.from_region(topo, random_circle(rng))
    while not scenario.failed_links:
        scenario = FailureScenario.from_region(topo, random_circle(rng))
    return topo, scenario


class TestRecoveryWindow:
    def test_rtr_finishes_inside_the_window(self, setting):
        topo, scenario = setting
        proto = LinkStateProtocol(topo)
        report = proto.apply_failure(
            set(scenario.failed_nodes), set(scenario.failed_links)
        )
        rtr = RTR(topo, scenario, routing=proto.before)
        view = LocalView(scenario)
        checked = 0
        for initiator in sorted(scenario.live_nodes()):
            bad = set(view.unreachable_neighbors(initiator))
            if not bad:
                continue
            for destination in sorted(scenario.live_nodes()):
                nh = proto.before.next_hop(initiator, destination)
                if nh not in bad:
                    continue
                result = rtr.recover(initiator, destination, nh)
                # Phase 1 (tens of ms) finishes long before convergence
                # (seconds): the recovery window is genuinely useful.
                assert result.phase1_duration < report.network_converged_at / 10
                checked += 1
                if checked >= 10:
                    return
        assert checked > 0

    def test_post_convergence_tables_match_oracle(self, setting):
        topo, scenario = setting
        proto = LinkStateProtocol(topo)
        proto.apply_failure(set(scenario.failed_nodes), set(scenario.failed_links))
        oracle = Oracle(topo, scenario)
        live = sorted(scenario.live_nodes())
        for src in live[:10]:
            for dst in live[-10:]:
                if src == dst:
                    continue
                after = proto.after.tree_to(dst).cost_to(src)
                optimal = oracle.optimal_cost(src, dst)
                if optimal is None:
                    assert after is None
                else:
                    assert after == pytest.approx(optimal)

    def test_detectors_are_area_adjacent(self, setting):
        topo, scenario = setting
        proto = LinkStateProtocol(topo)
        report = proto.apply_failure(
            set(scenario.failed_nodes), set(scenario.failed_links)
        )
        view = LocalView(scenario)
        for detector in report.detectors:
            assert view.unreachable_neighbors(detector)
