"""Tests for repro.simulator.compression (§III-E header mapping)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulator import RecoveryHeader
from repro.simulator.compression import (
    compress_links,
    compressed_header_bytes,
    encode_id_set,
    encode_varint,
    raw_header_bytes,
)

# The decoders: the library only ever encodes (it charges header bytes),
# so the inverses live here, where the round trips prove the coding lossless.


def decode_varint(data, offset=0):
    """Decode one varint; returns ``(value, next_offset)``."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise SimulationError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise SimulationError("varint too long")


def decode_id_set(data):
    """Inverse of :func:`encode_id_set`."""
    if not data:
        raise SimulationError("empty compressed id field")
    count = data[0]
    ids = []
    offset = 1
    value = 0
    for i in range(count):
        delta, offset = decode_varint(data, offset)
        value = delta if i == 0 else value + delta
        ids.append(value)
    if offset != len(data):
        raise SimulationError("trailing bytes after compressed id field")
    return ids


def decompress_links(topo, data):
    """Inverse of :func:`compress_links` (sorted by link index)."""
    return [topo.link_at(index) for index in decode_id_set(data)]


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**16, 2**40])
    def test_round_trip(self, value):
        data = encode_varint(value)
        decoded, offset = decode_varint(data)
        assert decoded == value
        assert offset == len(data)

    def test_single_byte_below_128(self):
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            encode_varint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(SimulationError):
            decode_varint(bytes([0x80]))


class TestIdSet:
    def test_round_trip(self):
        ids = [5, 100, 3, 7, 250]
        assert decode_id_set(encode_id_set(ids)) == sorted(set(ids))

    def test_deduplicates(self):
        assert decode_id_set(encode_id_set([4, 4, 4])) == [4]

    def test_empty_set(self):
        assert decode_id_set(encode_id_set([])) == []

    def test_clustered_ids_compress_well(self):
        # The point of delta coding: ids recorded by one walk cluster.
        clustered = list(range(40, 60))
        assert len(encode_id_set(clustered)) < 2 * len(clustered)
        assert len(encode_id_set(clustered)) == 1 + 1 + 19  # count+first+deltas

    def test_too_many_rejected(self):
        with pytest.raises(SimulationError):
            encode_id_set(range(300))

    def test_trailing_bytes_rejected(self):
        data = encode_id_set([1, 2]) + b"\x00"
        with pytest.raises(SimulationError):
            decode_id_set(data)

    @given(st.sets(st.integers(min_value=0, max_value=5000), max_size=200))
    def test_property_round_trip(self, ids):
        assert decode_id_set(encode_id_set(ids)) == sorted(ids)


class TestLinkCompression:
    def test_round_trip_on_paper_topology(self, paper_topo):
        links = list(paper_topo.links())[::3]
        data = compress_links(paper_topo, links)
        recovered = decompress_links(paper_topo, data)
        assert set(recovered) == set(links)

    def test_phase1_header_shrinks(self, paper_topo, paper_scenario):
        # Real phase-1 headers must compress below the raw 2-bytes-per-id.
        from repro.core import RTR

        rtr = RTR(paper_topo, paper_scenario)
        rtr.recover(6, 17, 11)
        phase1 = rtr.phase1_for(6, 11)
        header = RecoveryHeader(
            failed_links=list(phase1.collected_failed_links),
            cross_links=list(phase1.cross_links),
        )
        compressed = compressed_header_bytes(paper_topo, header)
        raw = raw_header_bytes(header)
        assert compressed < raw

    def test_source_route_not_compressed(self, paper_topo):
        header = RecoveryHeader(source_route=[6, 5, 12, 18, 17])
        assert compressed_header_bytes(paper_topo, header) == raw_header_bytes(header)
