"""Tests for repro.simulator.engine (the forwarding loop)."""

import pytest

from repro.errors import ForwardingLoopError, SimulationError
from repro.failures import FailureScenario, LocalView
from repro.simulator import ForwardingEngine, Packet, RecoveryAccounting
from repro.topology import Link


def make_engine(topo, failed_nodes=(), failed_links=()):
    scenario = FailureScenario(topo, failed_nodes, failed_links)
    return ForwardingEngine(topo, LocalView(scenario))


class TestForwardOneHop:
    def test_moves_and_accounts(self, ring8):
        engine = make_engine(ring8)
        packet = Packet(source=0, destination=4)
        acc = RecoveryAccounting()
        engine.forward_one_hop(packet, 1, acc)
        assert packet.at == 1
        assert packet.recovery_hops == 1
        assert acc.hops_traveled == 1
        assert acc.clock == pytest.approx(1.8e-3)


class TestWalk:
    def test_walk_until_none(self, ring8):
        engine = make_engine(ring8)
        packet = Packet(source=0, destination=0)

        def decide(node, pkt):
            return (node + 1) if node < 3 else None

        acc = RecoveryAccounting()
        visited = engine.walk(packet, decide, acc)
        assert visited == [0, 1, 2, 3]
        assert acc.hops_traveled == 3

    def test_walk_rejects_unreachable_choice(self, ring8):
        engine = make_engine(ring8, failed_links=[Link.of(0, 1)])
        packet = Packet(source=0, destination=0)
        with pytest.raises(ForwardingLoopError):
            engine.walk(packet, lambda n, p: 1, RecoveryAccounting())

    def test_walk_hop_budget(self, ring8):
        engine = make_engine(ring8)
        packet = Packet(source=0, destination=0)
        with pytest.raises(ForwardingLoopError) as exc:
            engine.walk(
                packet, lambda n, p: (n + 1) % 8, RecoveryAccounting(), max_hops=20
            )
        assert len(exc.value.walk) == 21

    def test_immediate_stop(self, ring8):
        engine = make_engine(ring8)
        packet = Packet(source=5, destination=5)
        visited = engine.walk(packet, lambda n, p: None, RecoveryAccounting())
        assert visited == [5]


class TestFollowSourceRoute:
    def test_delivery(self, ring8):
        engine = make_engine(ring8)
        packet = Packet(source=0, destination=3)
        acc = RecoveryAccounting()
        outcome = engine.follow_source_route_outcome(packet, [0, 1, 2, 3], acc)
        assert outcome.delivered and outcome.drop_node is None
        assert packet.at == 3
        assert acc.hops_traveled == 3

    def test_drop_at_failure(self, ring8):
        engine = make_engine(ring8, failed_links=[Link.of(2, 3)])
        packet = Packet(source=0, destination=3)
        acc = RecoveryAccounting()
        outcome = engine.follow_source_route_outcome(packet, [0, 1, 2, 3], acc)
        assert not outcome.delivered
        assert outcome.drop_node == 2
        assert acc.hops_traveled == 2

    def test_route_must_start_at_packet(self, ring8):
        engine = make_engine(ring8)
        packet = Packet(source=0, destination=3)
        with pytest.raises(ForwardingLoopError):
            engine.follow_source_route_outcome(packet, [1, 2, 3], RecoveryAccounting())

    def test_drop_at_failed_destination_predecessor(self, ring8):
        engine = make_engine(ring8, failed_nodes=[3])
        packet = Packet(source=0, destination=3)
        outcome = engine.follow_source_route_outcome(
            packet, [0, 1, 2, 3], RecoveryAccounting()
        )
        assert not outcome.delivered and outcome.drop_node == 2

    def test_empty_route_raises_descriptive_error(self, ring8):
        # Regression: an empty route used to die with an IndexError on
        # route[0]; it must be a SimulationError naming the packet.
        engine = make_engine(ring8)
        packet = Packet(source=0, destination=3)
        with pytest.raises(SimulationError, match="source route is empty"):
            engine.follow_source_route_outcome(packet, [], RecoveryAccounting())

    def test_outcome_missed_failure_is_not_lost(self, ring8):
        engine = make_engine(ring8, failed_links=[Link.of(2, 3)])
        packet = Packet(source=0, destination=3)
        outcome = engine.follow_source_route_outcome(
            packet, [0, 1, 2, 3], RecoveryAccounting()
        )
        assert not outcome.delivered
        assert outcome.drop_node == 2
        assert not outcome.lost  # a real missed failure, not injected loss
        assert "missed by phase 1" in outcome.drop_reason


class TestWalkOutcome:
    def test_completed_outcome(self, ring8):
        engine = make_engine(ring8)
        packet = Packet(source=0, destination=0)
        outcome = engine.walk_outcome(
            packet, lambda n, p: (n + 1) if n < 2 else None, RecoveryAccounting()
        )
        assert outcome.completed and not outcome.truncated and not outcome.lost
        assert outcome.visited == [0, 1, 2]

    def test_truncate_mode_returns_partial_walk(self, ring8):
        engine = make_engine(ring8)
        packet = Packet(source=0, destination=0)
        outcome = engine.walk_outcome(
            packet,
            lambda n, p: (n + 1) % 8,
            RecoveryAccounting(),
            max_hops=20,
            on_overrun="truncate",
        )
        assert outcome.truncated and not outcome.completed
        assert len(outcome.visited) == 21
        assert outcome.drop_node == outcome.visited[-1]
        assert "exceeded" in outcome.drop_reason

    def test_unknown_overrun_mode_rejected(self, ring8):
        engine = make_engine(ring8)
        packet = Packet(source=0, destination=0)
        with pytest.raises(ValueError):
            engine.walk_outcome(
                packet, lambda n, p: None, RecoveryAccounting(), on_overrun="ignore"
            )
