"""Tests for repro.core.multiarea (§III-E: multiple failure areas)."""

import random

import pytest

from repro.core import MultiAreaRTR
from repro.errors import SimulationError
from repro.failures import multi_area_scenario
from repro.topology import isp_catalog


@pytest.fixture
def big_topo():
    return isp_catalog.build("AS701", seed=2)


class TestSingleAreaEquivalence:
    def test_delivery_through_one_area(self, paper_topo, paper_scenario):
        rtr = MultiAreaRTR(paper_topo, paper_scenario)
        result = rtr.deliver(7, 17)
        assert result.delivered
        assert result.initiators == [6]
        assert result.traveled[0] == 7
        assert result.traveled[-1] == 17

    def test_no_failure_no_recovery(self, paper_topo, paper_scenario):
        rtr = MultiAreaRTR(paper_topo, paper_scenario)
        result = rtr.deliver(1, 2)
        assert result.delivered
        assert result.initiators == []

    def test_failed_source_rejected(self, paper_topo, paper_scenario):
        rtr = MultiAreaRTR(paper_topo, paper_scenario)
        with pytest.raises(SimulationError):
            rtr.deliver(10, 17)


class TestTwoAreas:
    def test_two_disjoint_areas_recovered(self, big_topo):
        rng = random.Random(5)
        for _ in range(40):
            scenario = multi_area_scenario(
                big_topo, rng, n_areas=2, min_separation=900
            )
            if not scenario.failed_links:
                continue
            rtr = MultiAreaRTR(big_topo, scenario)
            live = sorted(scenario.live_nodes())
            delivered = 0
            attempted = 0
            for src in live[:12]:
                for dst in live[-12:]:
                    if src == dst:
                        continue
                    try:
                        result = rtr.deliver(src, dst)
                    except SimulationError:
                        continue
                    attempted += 1
                    if result.delivered:
                        delivered += 1
                        assert result.traveled[-1] == dst
                    if scenario.reachable(src, dst):
                        # A reachable pair must not be falsely delivered to
                        # the wrong node; delivery may still fail, but the
                        # accounting must be consistent.
                        assert result.recovery_count <= rtr.max_recoveries
            if attempted:
                return  # one meaningful scenario is enough
        pytest.skip("no multi-area scenario produced failures")

    def test_header_accumulates_across_areas(self, big_topo):
        rng = random.Random(11)
        scenario = multi_area_scenario(big_topo, rng, n_areas=2, min_separation=900)
        rtr = MultiAreaRTR(big_topo, scenario)
        live = sorted(scenario.live_nodes())
        for src in live:
            for dst in reversed(live):
                if src == dst:
                    continue
                try:
                    result = rtr.deliver(src, dst)
                except SimulationError:
                    continue
                if result.recovery_count >= 2:
                    # The second initiator saw the first's failed links.
                    assert len(result.known_failed_links) > 0
                    return
        pytest.skip("no case needed two recoveries")


class TestBounds:
    def test_max_recoveries_respected(self, big_topo):
        rng = random.Random(3)
        scenario = multi_area_scenario(big_topo, rng, n_areas=3)
        rtr = MultiAreaRTR(big_topo, scenario, max_recoveries=2)
        live = sorted(scenario.live_nodes())
        for src in live[:15]:
            for dst in live[-15:]:
                if src == dst:
                    continue
                try:
                    result = rtr.deliver(src, dst)
                except SimulationError:
                    continue
                assert result.recovery_count <= 2
