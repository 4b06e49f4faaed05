"""``npcsr.expand_ranges`` equals the concatenated ``arange``s it stands for.

It expands the BFS waves of :mod:`repro.routing.kernels`, the cell
pairs of :func:`repro.geometry.compute_cross_links` and, from a scalar
start of 0, the array grid's strips.  Zero-length ranges and empty input
need no guard; skipped without numpy.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.topology.npcsr import expand_ranges, numpy_or_none

np = numpy_or_none()

pytestmark = pytest.mark.skipif(np is None, reason="numpy not installed")

ranges = st.lists(st.tuples(st.integers(-50, 10_000), st.integers(0, 12)), max_size=40)


@settings(max_examples=200, deadline=None)
@given(ranges)
@example([])
@example([(3, 0)])
@example([(7, 0), (2, 3), (9, 0), (0, 0), (5, 1), (4, 0)])
def test_equals_concatenated_aranges(pairs):
    starts = np.array([s for s, _ in pairs], dtype=np.int64)
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    want = np.concatenate(
        [np.arange(s, s + c, dtype=np.int64) for s, c in pairs] or [np.zeros(0, np.int64)]
    )
    got = expand_ranges(starts, counts)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()
    offsets = [k for _, c in pairs for k in range(c)]
    assert expand_ranges(0, counts).tolist() == offsets
