"""Tests for repro.simulator.engine (the forwarding loop)."""

import pytest

from repro.errors import ForwardingLoopError, SimulationError
from repro.failures import FailureScenario, LocalView
from repro.simulator import ForwardingEngine, Packet, RecoveryAccounting
from repro.topology import Link

from ..conftest import ring_sweep


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
    """The phase-1 sweep is the one walk with a loop of its own here."""

    def test_walk_until_none(self, ring8):
        # The walk stops itself: back at 4, the sweep re-selects 3.
        engine = make_engine(ring8, failed_links=[Link.of(4, 5)])
        spec, packet = ring_sweep()
        acc = RecoveryAccounting()
        outcome = spec.walk(engine, packet, acc)
        assert outcome.reached and not outcome.truncated and not outcome.lost
        assert outcome.visited == [4, 3, 2, 1, 0, 7, 6, 5, 6, 7, 0, 1, 2, 3, 4]
        assert acc.hops_traveled == 14 and outcome.drop_reason is None

    def test_walk_hop_budget(self, ring8):
        engine = make_engine(ring8, failed_links=[Link.of(4, 5)])
        spec, packet = ring_sweep(budget=10)
        with pytest.raises(ForwardingLoopError) as exc:
            spec.walk(engine, packet, RecoveryAccounting())
        assert len(exc.value.walk) == 11

    def test_immediate_stop(self, ring8):
        # A zero budget truncates before the first transmission.
        engine = make_engine(ring8, failed_links=[Link.of(4, 5)])
        spec, packet = ring_sweep(budget=0, strict=False)
        outcome = spec.walk(engine, packet, RecoveryAccounting())
        assert outcome.truncated and outcome.visited == [4]
        assert packet.recovery_hops == 0 and spec.field_trace == []


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
        engine = make_engine(ring8, failed_links=[Link.of(4, 5)])
        spec, packet = ring_sweep()
        outcome = spec.walk(engine, packet, RecoveryAccounting())
        assert outcome.reached and outcome.drop_node is None
        # One header snapshot per visited node, the stop included.
        assert [node for node, _, _ in spec.field_trace] == outcome.visited

    def test_truncate_mode_returns_partial_walk(self, ring8):
        engine = make_engine(ring8, failed_links=[Link.of(4, 5)])
        spec, packet = ring_sweep(budget=10, strict=False)
        outcome = spec.walk(engine, packet, RecoveryAccounting())
        assert outcome.truncated and not outcome.reached and not outcome.lost
        assert len(outcome.visited) == 11
        assert outcome.drop_node == outcome.visited[-1] == packet.at
        assert outcome.drop_reason == "walk exceeded 10 hops without terminating"
