"""Tests for repro.chaos.engine and runtime (loss, corruption, flaps)."""

import pytest

from repro.chaos import (
    ChaosForwardingEngine,
    ChaosRuntime,
    DegradedLocalView,
    FaultPlan,
    SecondaryFailure,
)
from repro.errors import ChaosError
from repro.failures import FailureScenario, LocalView
from repro.simulator import (
    ForwardingTrace,
    Mode,
    Packet,
    RecoveryAccounting,
    RecoveryHeader,
)
from repro.topology import Link


def make_chaos_engine(topo, plan, failed_links=(), trace=None):
    scenario = FailureScenario(topo, failed_links=failed_links)
    runtime = ChaosRuntime(plan, scenario)
    view = DegradedLocalView(scenario, plan, runtime)
    return ChaosForwardingEngine(topo, view, runtime, trace=trace), runtime


class TestPacketLoss:
    def test_certain_loss_drops_first_hop(self, ring8):
        engine, runtime = make_chaos_engine(ring8, FaultPlan(packet_loss_rate=1.0))
        packet = Packet(source=0, destination=4)
        acc = RecoveryAccounting()
        outcome = engine.walk_outcome(packet, lambda n, p: (n + 1) % 8, acc)
        assert outcome.lost and not outcome.completed and not outcome.truncated
        assert outcome.visited == [0]
        assert outcome.drop_node == 0
        assert runtime.packets_lost == 1
        assert acc.hops_traveled == 0  # the lost transmission never lands

    def test_zero_rate_never_loses(self, ring8):
        engine, runtime = make_chaos_engine(ring8, FaultPlan(packet_loss_rate=0.0))
        packet = Packet(source=0, destination=3)
        outcome = engine.follow_source_route_outcome(
            packet, [0, 1, 2, 3], RecoveryAccounting()
        )
        assert outcome.delivered and runtime.packets_lost == 0

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
        assert trace.drop_count() == 1
        assert trace.drops[0].node == 0
        assert "loss" in trace.drops[0].reason

    def test_loss_sequence_is_deterministic(self, ring8):
        counts = []
        for _ in range(2):
            engine, runtime = make_chaos_engine(
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
            counts.append((lost, runtime.packets_lost))
        assert counts[0] == counts[1]


    def test_loss_stream_pinned(self, ring8):
        # One seeded draw per prospective hop, in walk order: any change
        # to when or how often the loss RNG is drawn moves these strings.
        engine, runtime = make_chaos_engine(
            ring8, FaultPlan(seed=2012, packet_loss_rate=0.2)
        )
        routes, walks = "", ""
        for i in range(50):
            start = i % 8
            route = [(start + k) % 8 for k in range(4)]
            outcome = engine.follow_source_route_outcome(
                Packet(source=start, destination=route[-1]), route, RecoveryAccounting()
            )
            routes += "1" if outcome.lost else "0"
        for i in range(50):
            start = i % 8
            stop = (start + 5) % 8
            outcome = engine.walk_outcome(
                Packet(source=start, destination=stop),
                lambda n, p, stop=stop: None if n == stop else (n - 1) % 8,
                RecoveryAccounting(),
            )
            walks += "1" if outcome.lost else "0"
        assert routes == "01010110011111111111011001111000111000010101101011"
        assert walks == "11010101000100001110001110001010011001100000111111"
        assert (runtime.packets_lost, runtime.hops) == (55, 186)
        assert outcome.drop_reason == (
            "recovery packet lost on link e6,7 (injected loss)"
        )


class TestHeaderCorruption:
    def test_collecting_header_truncated(self, ring8):
        engine, runtime = make_chaos_engine(
            ring8, FaultPlan(header_corruption_rate=1.0)
        )
        header = RecoveryHeader(mode=Mode.COLLECTING, rec_init=0)
        header.record_failed(Link.of(6, 7))
        packet = Packet(source=0, destination=0, header=header)
        engine.forward_one_hop(packet, 1, RecoveryAccounting())
        assert header.failed_links == []  # the freshest entry was eaten
        assert runtime.headers_corrupted == 1

    def test_source_routed_header_untouched(self, ring8):
        engine, runtime = make_chaos_engine(
            ring8, FaultPlan(header_corruption_rate=1.0)
        )
        header = RecoveryHeader(
            mode=Mode.SOURCE_ROUTED, rec_init=0, source_route=[0, 1]
        )
        packet = Packet(source=0, destination=1, header=header)
        engine.forward_one_hop(packet, 1, RecoveryAccounting())
        assert header.source_route == [0, 1]
        assert runtime.headers_corrupted == 0


class TestSecondaryFailures:
    def test_activates_at_hop(self, ring8):
        plan = FaultPlan(
            secondary_failures=(SecondaryFailure(at_hop=2, link=(4, 5)),)
        )
        engine, runtime = make_chaos_engine(ring8, plan)
        assert runtime.pending_secondary_failures() == [(2, Link.of(4, 5))]
        packet = Packet(source=0, destination=3)
        engine.forward_one_hop(packet, 1, RecoveryAccounting())
        assert not runtime.is_link_flapped(Link.of(4, 5))
        engine.forward_one_hop(packet, 2, RecoveryAccounting())
        assert runtime.is_link_flapped(Link.of(4, 5))
        assert runtime.pending_secondary_failures() == []

    def test_unseeded_link_is_deterministic_and_live(self, ring8):
        plan = FaultPlan(seed=9, secondary_failures=(SecondaryFailure(at_hop=1),))
        scenario = FailureScenario(ring8, failed_links=[Link.of(0, 1)])
        picks = [
            ChaosRuntime(plan, scenario).pending_secondary_failures()[0][1]
            for _ in range(2)
        ]
        assert picks[0] == picks[1]
        assert picks[0] != Link.of(0, 1)  # never targets an already-dead link

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
        engine, _ = make_chaos_engine(ring8, FaultPlan())
        packet = Packet(source=0, destination=0)
        outcome = engine.walk_outcome(
            packet,
            lambda n, p: (n + 1) % 8,
            RecoveryAccounting(),
            max_hops=10,
            on_overrun="truncate",
        )
        assert outcome.truncated and not outcome.completed and not outcome.lost
        assert len(outcome.visited) == 11

    def test_strict_walk_surfaces_injected_loss(self, ring8):
        from repro.errors import SimulationError

        engine, _ = make_chaos_engine(ring8, FaultPlan(packet_loss_rate=1.0))
        packet = Packet(source=0, destination=0)
        with pytest.raises(SimulationError):
            engine.walk(packet, lambda n, p: (n + 1) % 8, RecoveryAccounting())
