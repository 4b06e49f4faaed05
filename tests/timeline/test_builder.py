"""Structural properties of built event sequences."""

import pytest

from repro.errors import TimelineError
from repro.timeline import (
    FailureEvent,
    FlapEvent,
    RepairEvent,
    TimelinePlan,
    build_events,
    event_to_dict,
    events_digest,
)
from repro.topology import grid_topology


def event_from_dict(d):
    """Inverse of :func:`event_to_dict`: the round trip proves the form lossless."""
    kind = d.get("kind")
    time = float(d["time"])
    event_id = int(d["event_id"])
    if kind == "failure":
        return FailureEvent(
            time=time,
            event_id=event_id,
            center=tuple(d["center"]),
            radius=float(d["radius"]),
            failed_nodes=tuple(d["failed_nodes"]),
            cut_links=tuple(tuple(l) for l in d["cut_links"]),
            cause=str(d["cause"]),
            parent_id=d["parent_id"],
        )
    if kind == "repair":
        link = d.get("link")
        return RepairEvent(
            time=time,
            event_id=event_id,
            node=d.get("node"),
            link=None if link is None else tuple(link),
            parent_id=d.get("parent_id"),
        )
    if kind == "flap":
        return FlapEvent(
            time=time,
            event_id=event_id,
            link=tuple(d["link"]),
            down=bool(d["down"]),
        )
    raise TimelineError(f"unknown event kind {kind!r}")


@pytest.fixture(scope="module")
def topo():
    return grid_topology(6, 6, spacing=400.0)


@pytest.fixture(scope="module")
def plan():
    return TimelinePlan(
        seed=11,
        duration_s=3600.0,
        n_failures=3,
        cascade_probability=1.0,
        n_flapping_links=2,
    )


@pytest.fixture(scope="module")
def events(plan, topo):
    return build_events(plan, topo)


class TestOrdering:
    def test_sorted_by_time_then_id(self, events):
        keys = [e.sort_key() for e in events]
        assert keys == sorted(keys)

    def test_event_ids_unique(self, events):
        ids = [e.event_id for e in events]
        assert len(ids) == len(set(ids))


class TestFailures:
    def test_primary_count(self, events, plan):
        primaries = [
            e for e in events if isinstance(e, FailureEvent) and e.cause == "primary"
        ]
        assert len(primaries) == plan.n_failures
        assert all(e.parent_id is None for e in primaries)
        # Primaries land in the first half so repairs/cascades fit after.
        assert all(e.time <= plan.duration_s * 0.5 for e in primaries)

    def test_every_primary_is_damaging(self, events):
        for e in events:
            if isinstance(e, FailureEvent):
                assert e.failed_nodes or e.cut_links

    def test_cascades_reference_their_parent(self, events):
        by_id = {e.event_id: e for e in events}
        cascades = [
            e for e in events if isinstance(e, FailureEvent) and e.cause == "cascade"
        ]
        assert cascades, "cascade_probability=1.0 should spawn secondaries"
        for child in cascades:
            parent = by_id[child.parent_id]
            assert isinstance(parent, FailureEvent)
            assert child.time > parent.time

    def test_cut_links_exclude_failed_router_links(self, events):
        for e in events:
            if isinstance(e, FailureEvent):
                down = set(e.failed_nodes)
                assert all(u not in down and v not in down for u, v in e.cut_links)


class TestRepairs:
    def test_repairs_follow_their_failure(self, events, plan):
        by_id = {e.event_id: e for e in events}
        repairs = [e for e in events if isinstance(e, RepairEvent)]
        for r in repairs:
            parent = by_id[r.parent_id]
            lo, _hi = plan.repair_delay_range
            assert r.time >= parent.time + lo
            assert r.time <= plan.duration_s
            if r.node is not None:
                assert r.node in parent.failed_nodes
            else:
                assert r.link in parent.cut_links

    def test_repair_requires_exactly_one_element(self):
        with pytest.raises(TimelineError):
            RepairEvent(time=1.0, event_id=0)
        with pytest.raises(TimelineError):
            RepairEvent(time=1.0, event_id=0, node=1, link=(1, 2))


class TestFlaps:
    def test_flap_links_and_pairing(self, events, plan):
        flaps = [e for e in events if isinstance(e, FlapEvent)]
        links = {e.link for e in flaps}
        assert len(links) == plan.n_flapping_links
        for link in links:
            series = sorted(
                (e for e in flaps if e.link == link), key=lambda e: e.time
            )
            # Oscillation alternates strictly: down, up, down, up, ...
            assert [e.down for e in series] == [
                i % 2 == 0 for i in range(len(series))
            ]

    def test_too_few_links_rejected(self):
        tiny = grid_topology(2, 2, spacing=400.0)
        plan = TimelinePlan(seed=1, n_flapping_links=50)
        with pytest.raises(TimelineError, match="flapping links"):
            build_events(plan, tiny)


class TestJsonRoundTrip:
    def test_events_round_trip_exactly(self, events):
        back = tuple(event_from_dict(event_to_dict(e)) for e in events)
        assert back == events
        assert events_digest(back) == events_digest(events)
