"""Tests for repro.chaos.engine and runtime (loss, corruption, flaps)."""

import pytest

from repro import obs
from repro.chaos import (
    ChaosForwardingEngine,
    ChaosRuntime,
    DegradedLocalView,
    FaultPlan,
    SecondaryFailure,
)
from repro.core import run_phase1
from repro.errors import ChaosError, SimulationError
from repro.failures import FailureScenario
from repro.simulator import (
    ForwardingTrace,
    Mode,
    Packet,
    RecoveryAccounting,
    RecoveryHeader,
)
from repro.topology import Link

from ..conftest import ring_sweep


@pytest.fixture(autouse=True)
def counting_obs():
    """Losses and truncations are read from the obs counters of each test."""
    prior = obs.enabled()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    if not prior:
        obs.disable()


def counted(name):
    return obs.metrics.counters.get(f"chaos.{name}", 0)


def make_chaos_engine(topo, plan, failed_links=(), trace=None):
    scenario = FailureScenario(topo, failed_links=failed_links)
    runtime = ChaosRuntime(plan, scenario)
    view = DegradedLocalView(scenario, plan, runtime)
    return ChaosForwardingEngine(topo, view, runtime, trace=trace), runtime


class TestPacketLoss:
    def test_certain_loss_drops_first_hop(self, ring8):
        engine, _ = make_chaos_engine(
            ring8, FaultPlan(packet_loss_rate=1.0), failed_links=[Link.of(4, 5)]
        )
        acc = RecoveryAccounting()
        result = run_phase1(ring8, engine.view, 4, 5, engine, acc, strict=False)
        assert not result.complete and result.walk == [4]
        assert result.incomplete_reason == (
            "recovery packet lost on link e3,4 (injected loss)"
        )
        assert counted("packets_lost") == 1
        assert acc.hops_traveled == 0  # the lost transmission never lands

    def test_zero_rate_never_loses(self, ring8):
        engine, _ = make_chaos_engine(ring8, FaultPlan(packet_loss_rate=0.0))
        packet = Packet(source=0, destination=3)
        outcome = engine.follow_source_route_outcome(
            packet, [0, 1, 2, 3], RecoveryAccounting()
        )
        assert outcome.delivered and counted("packets_lost") == 0

    def test_source_route_loss_reports_lost_not_missed_failure(self, ring8):
        engine, _ = make_chaos_engine(ring8, FaultPlan(packet_loss_rate=1.0))
        packet = Packet(source=0, destination=3)
        outcome = engine.follow_source_route_outcome(
            packet, [0, 1, 2, 3], RecoveryAccounting()
        )
        assert not outcome.delivered
        assert outcome.lost  # retransmittable, not a phantom §III-D failure

    def test_loss_recorded_in_trace(self, ring8):
        trace = ForwardingTrace()
        engine, _ = make_chaos_engine(
            ring8, FaultPlan(packet_loss_rate=1.0), trace=trace
        )
        packet = Packet(source=0, destination=3)
        engine.follow_source_route_outcome(packet, [0, 1, 2, 3], RecoveryAccounting())
        assert len(trace.drops) == 1
        assert trace.drops[0].node == 0
        assert "loss" in trace.drops[0].reason

    def test_loss_sequence_is_deterministic(self, ring8):
        counts = []
        for _ in range(2):
            obs.reset()
            engine, _ = make_chaos_engine(
                ring8, FaultPlan(seed=5, packet_loss_rate=0.3)
            )
            lost = 0
            for start in range(8):
                packet = Packet(source=start, destination=(start + 3) % 8)
                route = [(start + i) % 8 for i in range(4)]
                outcome = engine.follow_source_route_outcome(
                    packet, route, RecoveryAccounting()
                )
                lost += int(outcome.lost)
            counts.append((lost, counted("packets_lost")))
        assert counts[0] == counts[1]


    def test_loss_stream_pinned(self, ring8):
        # One seeded draw per prospective hop, in walk order: any change
        # to when or how often the loss RNG is drawn moves these strings.
        engine, runtime = make_chaos_engine(
            ring8, FaultPlan(seed=2012, packet_loss_rate=0.2)
        )
        routes = ""
        for i in range(50):
            start = i % 8
            route = [(start + k) % 8 for k in range(4)]
            outcome = engine.follow_source_route_outcome(
                Packet(source=start, destination=route[-1]), route, RecoveryAccounting()
            )
            routes += "1" if outcome.lost else "0"
        assert routes == "01010110011111111111011001111000111000010101101011"
        assert (counted("packets_lost"), runtime.hops) == (31, 85)

    def test_phase1_loss_stream_pinned(self, ring8):
        # The phase-1 half: the hop count of each walk (14 = complete).
        engine, runtime = make_chaos_engine(
            ring8,
            FaultPlan(seed=2012, packet_loss_rate=0.2),
            failed_links=[Link.of(4, 5)],
        )
        walks, reasons = "", []
        for i in range(50):
            initiator, trigger = (4, 5) if i % 2 == 0 else (5, 4)
            result = run_phase1(
                ring8, engine.view, initiator, trigger, engine, strict=False
            )
            walks += format(result.hops, "x")
            reasons.append(result.incomplete_reason)
        assert walks == "433071220011211316210921c54155021344ac20b02b46070e"
        assert (counted("packets_lost"), runtime.hops) == (49, 178)
        assert reasons[-2:] == [
            "recovery packet lost on link e3,4 (injected loss)",
            None,
        ]


class TestHeaderCorruption:
    def test_collecting_header_truncated(self, ring8):
        engine, _ = make_chaos_engine(
            ring8, FaultPlan(header_corruption_rate=1.0)
        )
        header = RecoveryHeader(mode=Mode.COLLECTING, rec_init=0)
        header.record_failed(Link.of(6, 7))
        packet = Packet(source=0, destination=0, header=header)
        engine.forward_one_hop(packet, 1, Link.of(0, 1), RecoveryAccounting())
        assert header.failed_links == []  # the freshest entry was eaten
        assert counted("headers_corrupted") == 1

    def test_source_routed_header_untouched(self, ring8):
        engine, _ = make_chaos_engine(
            ring8, FaultPlan(header_corruption_rate=1.0)
        )
        header = RecoveryHeader(
            mode=Mode.SOURCE_ROUTED, rec_init=0, source_route=[0, 1]
        )
        packet = Packet(source=0, destination=1, header=header)
        engine.forward_one_hop(packet, 1, Link.of(0, 1), RecoveryAccounting())
        assert header.source_route == [0, 1]
        assert counted("headers_corrupted") == 0


class TestSecondaryFailures:
    def test_activates_at_hop(self, ring8):
        plan = FaultPlan(
            secondary_failures=(SecondaryFailure(at_hop=2, link=(4, 5)),)
        )
        engine, runtime = make_chaos_engine(ring8, plan)
        lid = ring8.csr().pair_lid[(4, 5)]
        packet = Packet(source=0, destination=3)
        engine.forward_one_hop(packet, 1, Link.of(0, 1), RecoveryAccounting())
        assert not runtime.is_link_id_flapped(lid)
        engine.forward_one_hop(packet, 2, Link.of(1, 2), RecoveryAccounting())
        assert runtime.flapped_lids == {lid}

    def test_unseeded_link_is_deterministic_and_live(self, ring8):
        plan = FaultPlan(seed=9, secondary_failures=(SecondaryFailure(at_hop=1),))
        scenario = FailureScenario(ring8, failed_links=[Link.of(0, 1)])
        picks = []
        for _ in range(2):
            runtime = ChaosRuntime(plan, scenario)
            runtime.on_hop()
            picks.append(runtime.flapped_lids)
        assert picks[0] == picks[1] and len(picks[0]) == 1
        # never targets an already-dead link
        assert ring8.csr().pair_lid[(0, 1)] not in picks[0]

    def test_missing_link_rejected(self, ring8):
        plan = FaultPlan(
            secondary_failures=(SecondaryFailure(at_hop=1, link=(0, 4)),)
        )
        with pytest.raises(ChaosError):
            ChaosRuntime(plan, FailureScenario(ring8))

    def test_already_failed_link_rejected(self, ring8):
        plan = FaultPlan(
            secondary_failures=(SecondaryFailure(at_hop=1, link=(0, 1)),)
        )
        scenario = FailureScenario(ring8, failed_links=[Link.of(0, 1)])
        with pytest.raises(ChaosError):
            ChaosRuntime(plan, scenario)


class TestStrictEngineOutcomes:
    def test_walk_truncates_instead_of_raising(self, ring8):
        engine, _ = make_chaos_engine(ring8, FaultPlan(), failed_links=[Link.of(4, 5)])
        spec, packet = ring_sweep(budget=10, strict=False)
        outcome = spec.walk(engine, packet, RecoveryAccounting())
        assert outcome.truncated and not outcome.reached and not outcome.lost
        assert len(outcome.visited) == 11

    def test_strict_walk_surfaces_injected_loss(self, ring8):
        engine, _ = make_chaos_engine(
            ring8, FaultPlan(packet_loss_rate=1.0), failed_links=[Link.of(4, 5)]
        )
        with pytest.raises(SimulationError, match="phase-1 packet of 4 lost at 4"):
            run_phase1(ring8, engine.view, 4, 5, engine)
