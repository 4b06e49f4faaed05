"""Tests for repro.geometry.planarity (cross-link precomputation)."""

from repro.geometry import (
    CrossRows,
    Point,
    Segment,
    compute_cross_links,
    crossing_pairs,
    is_planar_embedding,
)

from .reference_cross_links import reference_cross_links, rows_as_map


def seg(x1, y1, x2, y2) -> Segment:
    return Segment(Point(x1, y1), Point(x2, y2))


def crossing_map(links):
    """The rows of ``compute_cross_links``, checked against the reference."""
    crossings = rows_as_map(links, compute_cross_links(links))
    assert crossings == reference_cross_links(links)
    return crossings


class TestComputeCrossLinks:
    def test_simple_x(self):
        links = [("a", seg(0, 0, 10, 10)), ("b", seg(0, 10, 10, 0))]
        assert compute_cross_links(links) == CrossRows.from_rows([(1,), (0,)])
        assert crossing_map(links) == {"a": {"b"}, "b": {"a"}}

    def test_no_crossings(self):
        links = [("a", seg(0, 0, 1, 0)), ("b", seg(0, 1, 1, 1))]
        assert compute_cross_links(links) == CrossRows.from_rows([(), ()])
        assert crossing_map(links) == {"a": set(), "b": set()}

    def test_shared_endpoints_dont_cross(self):
        links = [("a", seg(0, 0, 5, 5)), ("b", seg(5, 5, 10, 0))]
        crossings = crossing_map(links)
        assert crossings == {"a": set(), "b": set()}

    def test_one_link_crossing_many(self):
        # A long horizontal crossed by three verticals.
        links = [("h", seg(0, 5, 30, 5))] + [
            (f"v{i}", seg(10 * i + 5, 0, 10 * i + 5, 10)) for i in range(3)
        ]
        assert list(compute_cross_links(links)[0]) == [1, 2, 3]
        crossings = crossing_map(links)
        assert crossings["h"] == {"v0", "v1", "v2"}
        for i in range(3):
            assert crossings[f"v{i}"] == {"h"}

    def test_symmetry(self):
        links = [
            ("a", seg(0, 0, 10, 10)),
            ("b", seg(0, 10, 10, 0)),
            ("c", seg(20, 0, 30, 0)),
        ]
        rows = compute_cross_links(links)
        for i, row in enumerate(rows):
            for j in row:
                assert i in rows[j]
        crossing_map(links)

    def test_far_apart_links_skipped_by_sweep(self):
        # Exercise the early-exit path with widely separated segments.
        links = [(i, seg(100 * i, 0, 100 * i + 10, 10)) for i in range(20)]
        crossings = crossing_map(links)
        assert all(not s for s in crossings.values())

    def test_empty_input(self):
        assert compute_cross_links([]) == CrossRows.from_rows([])


class TestPlanarityPredicates:
    def test_planar_embedding_true(self):
        links = [("a", seg(0, 0, 1, 0)), ("b", seg(0, 1, 1, 1))]
        assert is_planar_embedding(links)

    def test_planar_embedding_false(self):
        links = [("a", seg(0, 0, 10, 10)), ("b", seg(0, 10, 10, 0))]
        assert not is_planar_embedding(links)

    def test_crossing_pairs_unique(self):
        links = [
            ("a", seg(0, 0, 10, 10)),
            ("b", seg(0, 10, 10, 0)),
            ("c", seg(0, 5, 10, 5)),
        ]
        pairs = crossing_pairs(links)
        assert len(pairs) == 3  # a-b, a-c, b-c
        assert len({frozenset(p) for p in pairs}) == 3


class TestPaperTopologyCrossings:
    def test_expected_crossings_present(self, paper_topo):
        from repro.topology import Link

        assert Link.of(6, 11) in paper_topo.cross_links(Link.of(5, 12))
        assert Link.of(12, 14) in paper_topo.cross_links(Link.of(11, 15))
        assert Link.of(12, 14) in paper_topo.cross_links(Link.of(11, 16))

    def test_planarized_paper_topology_has_no_crossings(self, paper_planar):
        assert paper_planar.is_planar_embedding()
