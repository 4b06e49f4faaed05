"""Tests for repro.routing.linkstate (IGP convergence model)."""

import pytest

from repro.routing import ConvergenceConfig, LinkStateProtocol
from repro.topology import Link


class TestConvergenceTimeline:
    def test_no_failure_instant(self, ring8):
        proto = LinkStateProtocol(ring8)
        report = proto.apply_failure(set(), set())
        assert report.detectors == set()
        # Only the SPF term applies when there is nothing to learn.
        assert report.network_converged_at == pytest.approx(
            proto.config.spf_time
        )

    def test_detectors_are_failure_adjacent(self, ring8):
        proto = LinkStateProtocol(ring8)
        report = proto.apply_failure(set(), {Link.of(0, 1)})
        assert report.detectors == {0, 1}

    def test_node_failure_detectors(self, ring8):
        proto = LinkStateProtocol(ring8)
        report = proto.apply_failure({3}, set())
        assert report.detectors == {2, 4}

    def test_convergence_takes_seconds(self, ring8):
        # The paper's premise: convergence is slow (hold-down dominated).
        proto = LinkStateProtocol(ring8)
        report = proto.apply_failure(set(), {Link.of(0, 1)})
        assert report.network_converged_at > 2.0

    def test_distance_delays_convergence(self, ring8):
        cfg = ConvergenceConfig(flood_hop_delay=0.1)
        proto = LinkStateProtocol(ring8, cfg)
        report = proto.apply_failure(set(), {Link.of(0, 1)})
        # With e0,1 cut the ring is a line: detector 1's update reaches
        # detector 0 only after 7 flood hops, while node 4 hears from both
        # detectors within 4 hops.
        far = report.router_converged_at[0]
        near = report.router_converged_at[4]
        assert far > near

    def test_failed_routers_have_no_convergence_time(self, ring8):
        proto = LinkStateProtocol(ring8)
        report = proto.apply_failure({3}, set())
        assert 3 not in report.router_converged_at
        assert set(report.router_converged_at) == set(range(8)) - {3}


class TestBeforeAfterViews:
    def test_before_uses_failed_link(self, ring8):
        proto = LinkStateProtocol(ring8)
        proto.apply_failure(set(), {Link.of(0, 1)})
        # The stale view still routes 0 -> 1 directly.
        assert proto.before.next_hop(0, 1) == 1

    def test_after_avoids_failed_link(self, ring8):
        proto = LinkStateProtocol(ring8)
        proto.apply_failure(set(), {Link.of(0, 1)})
        path = proto.after.path(0, 1)
        assert path is not None
        assert len(path.nodes) == 8

    def test_after_drops_failed_node_routes(self, ring8):
        proto = LinkStateProtocol(ring8)
        proto.apply_failure({1}, set())
        assert proto.after.path(0, 2) is not None
        assert len(proto.after.path(0, 2).nodes) == 7

    def test_after_reflects_partition(self, tiny_line):
        proto = LinkStateProtocol(tiny_line)
        proto.apply_failure(set(), {Link.of(1, 2)})
        assert proto.after.path(0, 2) is None
