"""Header compression for recorded link ids (§III-E).

The paper notes that the multi-area header overhead can be reduced with
the *mapping technique* of FCP: instead of carrying raw 16-bit link ids,
carry a compact encoding.  This module implements a practical variant —
**sorted delta + varint** coding:

* link ids are sorted and delta-encoded (ids recorded by one walk cluster
  around the failure area, so deltas are small),
* each delta is written as a LEB128-style varint (7 data bits per byte).

A one-byte count prefix makes the field self-delimiting.  The codec is
lossless for the id *set* (recording order is irrelevant once the walk is
over: phase 2 only needs the set), and the ablation benchmark
``bench_header_compression`` measures the byte savings on real phase-1
headers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import SimulationError
from ..topology import Link, Topology
from .packet import BYTES_PER_ID, RecoveryHeader

#: Maximum ids a single compressed field can hold (count prefix is 1 byte).
MAX_IDS = 255


def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    if value < 0:
        raise SimulationError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_id_set(ids: Iterable[int]) -> bytes:
    """Compress a set of non-negative ids (sorted delta + varint)."""
    ordered = sorted(set(ids))
    if len(ordered) > MAX_IDS:
        raise SimulationError(f"too many ids to compress: {len(ordered)}")
    out = bytearray([len(ordered)])
    previous = 0
    for i, value in enumerate(ordered):
        delta = value if i == 0 else value - previous
        out.extend(encode_varint(delta))
        previous = value
    return bytes(out)


def compress_links(topo: Topology, links: Sequence[Link]) -> bytes:
    """Compress a list of links via their topology link indices."""
    return encode_id_set(topo.link_index(link) for link in links)


def compressed_header_bytes(topo: Topology, header: RecoveryHeader) -> int:
    """Size of the header's variable fields under compression.

    Compares against :meth:`RecoveryHeader.recovery_bytes`, which charges
    ``BYTES_PER_ID`` per raw id.  The source route is *not* compressed —
    its order is semantically significant — so it keeps the raw cost.
    """
    total = 0
    if header.failed_links:
        total += len(compress_links(topo, header.failed_links))
    if header.cross_links:
        total += len(compress_links(topo, header.cross_links))
    total += BYTES_PER_ID * len(header.source_route)
    return total


def raw_header_bytes(header: RecoveryHeader) -> int:
    """The uncompressed cost of the same variable fields."""
    return BYTES_PER_ID * (
        len(header.failed_links) + len(header.cross_links) + len(header.source_route)
    )
