"""Tests for repro.simulator.trace (structured forwarding traces)."""

import dataclasses

import pytest

from repro.failures import FailureScenario, LocalView
from repro.simulator import ForwardingEngine, ForwardingTrace, Packet, RecoveryAccounting
from repro.topology import Link


def traced_engine(topo, failed_nodes=(), failed_links=()):
    scenario = FailureScenario(topo, failed_nodes, failed_links)
    trace = ForwardingTrace()
    engine = ForwardingEngine(topo, LocalView(scenario), trace=trace)
    return engine, trace


class TestTracing:
    def test_records_each_hop(self, ring8):
        engine, trace = traced_engine(ring8)
        packet = Packet(source=0, destination=3)
        acc = RecoveryAccounting()
        engine.follow_source_route_outcome(packet, [0, 1, 2, 3], acc)
        assert len(trace) == 3
        assert [e.sender for e in trace.events] == [0, 1, 2]
        assert [e.receiver for e in trace.events] == [1, 2, 3]

    def test_times_match_accounting(self, ring8):
        engine, trace = traced_engine(ring8)
        packet = Packet(source=0, destination=2)
        acc = RecoveryAccounting()
        engine.follow_source_route_outcome(packet, [0, 1, 2], acc)
        assert [e.time for e in trace.events] == [t for t, _ in acc.header_timeline]

    def test_no_trace_by_default(self, ring8):
        scenario = FailureScenario(ring8)
        engine = ForwardingEngine(ring8, LocalView(scenario))
        assert engine.trace is None

    def test_packet_ids_distinguish_flows(self, ring8):
        engine, trace = traced_engine(ring8)
        for _ in range(2):
            packet = Packet(source=0, destination=2)
            engine.follow_source_route_outcome(
                packet, [0, 1, 2], RecoveryAccounting()
            )
        ids = {e.packet_id for e in trace.events}
        assert len(ids) == 2
        first = [e for e in trace.events if e.packet_id == min(ids)]
        assert len(first) == 2


class TestTraceQueries:
    def test_rtr_walk_trace(self, paper_topo, paper_scenario):
        from repro.core import run_phase1

        view = LocalView(paper_scenario)
        trace = ForwardingTrace()
        engine = ForwardingEngine(paper_topo, view, trace=trace)
        phase1 = run_phase1(paper_topo, view, 6, 11, engine)
        assert len(trace) == phase1.hops
        # The Table I walk crosses v11-v12 in both directions.
        assert [e.link for e in trace.events].count(Link.of(11, 12)) == 2

    def test_peak_header_is_late_in_walk(self, paper_topo, paper_scenario):
        from repro.core import run_phase1

        view = LocalView(paper_scenario)
        trace = ForwardingTrace()
        engine = ForwardingEngine(paper_topo, view, trace=trace)
        run_phase1(paper_topo, view, 6, 11, engine)
        sizes = [e.header_bytes for e in trace.events]
        # Phase 1 only adds to the header, so it peaks on the last hops.
        assert sizes == sorted(sizes) and sizes[-1] > sizes[0]

    def test_duration_and_totals(self, ring8):
        engine, trace = traced_engine(ring8)
        packet = Packet(source=0, destination=2)
        engine.follow_source_route_outcome(packet, [0, 1, 2], RecoveryAccounting())
        assert trace.duration() == pytest.approx(2 * 1.8e-3)
        assert [e.header_bytes for e in trace.events] == [0, 0]  # default header

    def test_empty_trace(self):
        trace = ForwardingTrace()
        assert len(trace) == 0 and trace.drops == []
        assert trace.duration() == 0.0


class TestSpanCorrelation:
    def test_span_id_is_none_when_obs_disabled(self, ring8):
        engine, trace = traced_engine(ring8)
        packet = Packet(source=0, destination=1)
        engine.follow_source_route_outcome(packet, [0, 1], RecoveryAccounting())
        assert trace.events[0].span_id is None
        assert dataclasses.asdict(trace.events[0])["span_id"] is None

    def test_hops_stamped_with_enclosing_span(self, ring8, obs_on):
        from repro import obs

        engine, trace = traced_engine(ring8)
        packet = Packet(source=0, destination=2)
        with obs.span("delivery") as span:
            engine.follow_source_route_outcome(
                packet, [0, 1, 2], RecoveryAccounting()
            )
        span_id = span.span_id
        assert [e.span_id for e in trace.events] == [span_id, span_id]

    def test_to_rows_round_trips_hop_events(self, ring8):
        from repro.simulator import HopEvent

        engine, trace = traced_engine(ring8)
        packet = Packet(source=0, destination=2)
        engine.follow_source_route_outcome(packet, [0, 1, 2], RecoveryAccounting())
        for event in trace.events:
            row = dataclasses.asdict(event)
            assert row["link"] == (row["sender"], row["receiver"])
            assert HopEvent(**row) == event
