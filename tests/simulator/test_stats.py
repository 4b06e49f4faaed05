"""Tests for repro.simulator.stats."""

from repro.routing import Path
from repro.simulator import HOP_DELAY_S, RecoveryAccounting, RecoveryResult


class TestRecoveryAccounting:
    def test_count_sp(self):
        acc = RecoveryAccounting()
        acc.count_sp()
        acc.count_sp(2)
        assert acc.sp_computations == 3

    def test_hops_advance_running_clock(self):
        # The clock is a running sum, one HOP_DELAY_S per hop: not the hop
        # count times the delay, which differs in the last bits.
        acc = RecoveryAccounting()
        clocks = []
        for _ in range(6):
            hop(acc)
            clocks.append(acc.clock)
        assert acc.hops_traveled == 6
        assert acc.clock != 6 * HOP_DELAY_S
        assert [t for t, _ in acc.header_timeline] == clocks

    def test_peak_and_final_bytes(self):
        # Header bytes are logged on change; the timeline carries them on.
        acc = RecoveryAccounting()
        acc.carry(5)
        hop(acc)
        acc.carry(7, ("failed_links", "e1"))
        acc.carry(9, ("cross_links", "e2"))
        hop(acc)
        hop(acc)
        acc.carry(7, ("cross_links", None))
        hop(acc)
        sizes = [b for _, b in acc.header_timeline]
        assert sizes == [5, 9, 9, 7]
        assert (max(sizes), sizes[-1]) == (9, 7)
        assert acc.final_header_bytes() == 7

    def test_clock_jumps_and_copies(self):
        acc = RecoveryAccounting()
        acc.carry(3)
        hop(acc)
        acc.advance_clock(0.5)
        hop(acc)
        copy = acc.copy()
        hop(acc)
        assert copy.header_timeline == [
            (HOP_DELAY_S, 3),
            (HOP_DELAY_S + 0.5 + HOP_DELAY_S, 3),
        ]
        assert len(acc.header_timeline) == 3 and copy.hops_traveled == 2

    def test_empty_accounting(self):
        acc = RecoveryAccounting()
        assert acc.header_timeline == []
        assert acc.final_header_bytes() == 0
        assert (acc.clock, acc.hops_traveled) == (0.0, 0)


def hop(acc):
    """What the forwarding engine does to the accounting on one hop."""
    acc.clock += HOP_DELAY_S
    acc.hops_traveled += 1


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
