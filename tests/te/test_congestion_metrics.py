"""Tests for repro.te.metrics (utilization CDFs, percentiles, attribution)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.te.metrics import (
    HISTOGRAM_BINS,
    UTILIZATION_BIN_EDGES,
    UTILIZATION_BIN_WIDTH,
    merge_histograms,
    overload_attribution,
    utilization_percentile,
)
from repro.topology import Link
from repro.traffic import LinkLoadMap


@pytest.fixture
def loaded_line(tiny_line):
    tiny_line.set_link_capacity(Link.of(0, 1), 10.0)
    tiny_line.set_link_capacity(Link.of(1, 2), 4.0)
    loads = LinkLoadMap(tiny_line)
    loads.add_links([Link.of(0, 1), Link.of(1, 2)], 8.0)  # util 0.8 and 2.0
    return loads


class TestHistogram:
    def test_bins_cover_every_topology_link(self, loaded_line):
        hist = loaded_line.summary().histogram
        assert len(hist) == HISTOGRAM_BINS
        assert sum(hist) == len(list(loaded_line.topo.links()))

    def test_bin_placement(self, loaded_line):
        hist = loaded_line.summary().histogram
        # util 0.8 lands in bin [0.80, 0.85); util 2.0 in [2.00, 2.05).
        assert hist[int(0.8 / UTILIZATION_BIN_WIDTH)] == 1
        assert hist[int(2.0 / UTILIZATION_BIN_WIDTH)] == 1

    def test_idle_links_count_in_bin_zero(self, grid5):
        hist = LinkLoadMap(grid5).summary().histogram
        assert hist[0] == len(list(grid5.links()))
        assert sum(hist[1:]) == 0

    def test_overflow_bin_absorbs_the_tail(self, tiny_line):
        tiny_line.set_link_capacity(Link.of(0, 1), 1.0)
        loads = LinkLoadMap(tiny_line)
        loads.add_link(Link.of(0, 1), 100.0)  # util 100 > last edge 3.0
        hist = loads.summary().histogram
        assert hist[-1] == 1


class TestMerge:
    def test_elementwise_sum(self):
        a = tuple([1] * HISTOGRAM_BINS)
        b = tuple([2] * HISTOGRAM_BINS)
        assert merge_histograms([a, b]) == tuple([3] * HISTOGRAM_BINS)

    def test_empty_inputs_skip(self):
        a = tuple([1] * HISTOGRAM_BINS)
        assert merge_histograms([a, (), a]) == tuple([2] * HISTOGRAM_BINS)
        assert merge_histograms([]) == tuple([0] * HISTOGRAM_BINS)


class TestPercentile:
    def test_reads_upper_bin_edges(self):
        hist = [0] * HISTOGRAM_BINS
        hist[9] = 50  # util in [0.45, 0.50)
        hist[19] = 50  # util in [0.95, 1.00)
        assert utilization_percentile(hist, 0.50) == pytest.approx(0.50)
        assert utilization_percentile(hist, 0.99) == pytest.approx(1.00)

    def test_overflow_bin_reports_last_finite_edge(self):
        hist = [0] * HISTOGRAM_BINS
        hist[-1] = 1
        assert utilization_percentile(hist, 1.0) == UTILIZATION_BIN_EDGES[-1]

    def test_empty_histogram_is_zero(self):
        assert utilization_percentile([0] * HISTOGRAM_BINS, 0.95) == 0.0

    def test_quantile_domain_validated(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="quantile"):
                utilization_percentile([1], bad)


class TestOverloadAttribution:
    def test_ranks_links_and_demands(self, loaded_line):
        hot = Link.of(1, 2)
        contributions = {
            hot: {(0, 2): 5.0, (2, 0): 3.0, (0, 1): 1.0, (1, 2): 0.5}
        }
        entries = overload_attribution(
            loaded_line.summary().overloaded, contributions, top_demands=2
        )
        assert len(entries) == 1  # only (1,2) is overloaded
        u, v, utilization, demands = entries[0]
        assert Link.of(u, v) == hot
        assert utilization == pytest.approx(2.0)
        # Top-k demands, largest first, ties broken by OD pair.
        assert demands == ((0, 2, 5.0), (2, 0, 3.0))

    def test_unattributed_overload_is_empty_tuple(self, loaded_line):
        entries = overload_attribution(loaded_line.summary().overloaded, {})
        assert entries[0][3] == ()

    def test_no_overload_no_entries(self, grid5):
        assert overload_attribution(LinkLoadMap(grid5).summary().overloaded, {}) == ()

    @settings(max_examples=200, deadline=None)
    @given(
        per_pair=st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            # Few distinct demands: most draws tie at the k-th place.
            st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0]),
            max_size=20,
        ),
        k=st.integers(0, 6),
    )
    def test_top_demands_equal_a_full_sort_under_ties(self, per_pair, k):
        hot = Link.of(1, 2)
        entries = overload_attribution([(hot, 2.0)], {hot: per_pair}, top_demands=k)
        ranked = sorted(per_pair.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        assert entries == ((1, 2, 2.0, tuple((s, d, x) for (s, d), x in ranked)),)
