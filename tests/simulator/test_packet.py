"""Tests for repro.simulator.packet (headers and byte accounting)."""

from repro.simulator import (
    BYTES_PER_ID,
    FIXED_RTR_HEADER_BYTES,
    Mode,
    Packet,
    RecoveryHeader,
)
from repro.topology import Link


class TestRecoveryHeader:
    def test_default_mode_has_no_overhead(self):
        assert RecoveryHeader().recovery_bytes() == 0

    def test_collecting_mode_fixed_bytes(self):
        header = RecoveryHeader(mode=Mode.COLLECTING, rec_init=6)
        assert header.recovery_bytes() == FIXED_RTR_HEADER_BYTES

    def test_failed_link_bytes(self):
        header = RecoveryHeader(mode=Mode.COLLECTING, rec_init=6)
        header.record_failed(Link.of(5, 10))
        header.record_failed(Link.of(9, 10))
        assert (
            header.recovery_bytes()
            == FIXED_RTR_HEADER_BYTES + 2 * BYTES_PER_ID
        )

    def test_record_failed_deduplicates(self):
        header = RecoveryHeader()
        assert header.record_failed(Link.of(1, 2))
        assert not header.record_failed(Link.of(2, 1))
        assert len(header.failed_links) == 1

    def test_insertion_order_preserved(self):
        # Table I depends on the recording order.
        header = RecoveryHeader()
        for pair in [(5, 10), (4, 11), (9, 10)]:
            header.record_failed(Link.of(*pair))
        assert header.failed_links == [
            Link.of(5, 10),
            Link.of(4, 11),
            Link.of(9, 10),
        ]

    def test_source_route_bytes(self):
        header = RecoveryHeader(mode=Mode.SOURCE_ROUTED, source_route=[6, 5, 12, 18, 17])
        assert (
            header.recovery_bytes()
            == FIXED_RTR_HEADER_BYTES + 5 * BYTES_PER_ID
        )

    def test_copy_is_independent(self):
        header = RecoveryHeader(mode=Mode.COLLECTING)
        clone = header.copy()
        clone.record_failed(Link.of(1, 2))
        assert not header.failed_links


class TestPacket:
    def test_starts_at_source(self):
        packet = Packet(source=3, destination=9)
        assert packet.at == 3

    def test_unique_ids(self):
        a = Packet(source=0, destination=1)
        b = Packet(source=0, destination=1)
        assert a.packet_id != b.packet_id
