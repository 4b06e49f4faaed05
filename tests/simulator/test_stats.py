"""Tests for repro.simulator.stats."""

from repro.routing import Path
from repro.simulator import RecoveryAccounting, RecoveryResult


class TestRecoveryAccounting:
    def test_count_sp(self):
        acc = RecoveryAccounting()
        acc.count_sp()
        acc.count_sp(2)
        assert acc.sp_computations == 3

    def test_record_hop_advances_clock(self):
        acc = RecoveryAccounting()
        acc.record_hop(0.0018, 10)
        acc.record_hop(0.0018, 12)
        assert acc.hops_traveled == 2
        assert acc.clock == 0.0036
        assert acc.header_timeline == [(0.0018, 10), (0.0036, 12)]

    def test_peak_and_final_bytes(self):
        acc = RecoveryAccounting()
        for size in (5, 20, 8):
            acc.record_hop(0.001, size)
        assert acc.peak_header_bytes() == 20
        assert acc.final_header_bytes() == 8

    def test_empty_accounting(self):
        acc = RecoveryAccounting()
        assert acc.peak_header_bytes() == 0
        assert acc.final_header_bytes() == 0


class TestRecoveryResult:
    def test_wasted_transmission_delivered_is_zero(self):
        result = RecoveryResult(
            approach="RTR",
            delivered=True,
            path=Path((1, 2), 1.0),
            accounting=RecoveryAccounting(),
            drop_hops=5,
            drop_packet_bytes=1010,
        )
        assert result.wasted_transmission() == 0.0

    def test_wasted_transmission_s_times_h(self):
        # §IV-D: s * h.
        result = RecoveryResult(
            approach="FCP",
            delivered=False,
            path=None,
            accounting=RecoveryAccounting(),
            drop_hops=7,
            drop_packet_bytes=1014,
        )
        assert result.wasted_transmission() == 7 * 1014

    def test_sp_computations_proxied(self):
        acc = RecoveryAccounting()
        acc.count_sp(4)
        result = RecoveryResult(
            approach="FCP", delivered=False, path=None, accounting=acc
        )
        assert result.sp_computations == 4


class TestAggregateResults:
    """Regression: guarded denominators in the accounting's aggregates."""

    def test_mean_header_bytes_guarded(self):
        acc = RecoveryAccounting()
        assert acc.mean_header_bytes() == 0.0
        acc.record_hop(0.001, 100)
        acc.record_hop(0.001, 300)
        assert acc.mean_header_bytes() == 200.0
