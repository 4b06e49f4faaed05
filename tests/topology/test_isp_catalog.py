"""Tests for repro.topology.isp_catalog (Table II)."""

import pytest

from repro.errors import EvaluationError
from repro.topology import isp_catalog

#: Table II of the paper, verbatim.
TABLE2 = {
    "AS209": (58, 108),
    "AS701": (83, 219),
    "AS1239": (52, 84),
    "AS3320": (70, 355),
    "AS3549": (61, 486),
    "AS3561": (92, 329),
    "AS4323": (51, 161),
    "AS7018": (115, 148),
}


class TestCatalogContents:
    def test_table2_names_in_order(self):
        assert isp_catalog.names() == list(TABLE2)

    def test_extended_profiles_appended(self):
        names = isp_catalog.names(include_extended=True)
        assert names[:8] == list(TABLE2)
        assert set(names[8:]) == {"AS2914", "AS3356"}

    def test_profile_lookup(self):
        prof = isp_catalog.profile("AS1239")
        assert (prof.n_nodes, prof.n_links) == TABLE2["AS1239"]

    def test_unknown_profile(self):
        with pytest.raises(EvaluationError):
            isp_catalog.profile("AS9999")

    def test_summary_rows_match_table2(self):
        rows = isp_catalog.summary_rows()
        assert {
            (r["topology"], r["nodes"], r["links"]) for r in rows
        } == {(name, n, m) for name, (n, m) in TABLE2.items()}


@pytest.mark.parametrize("name,expected", sorted(TABLE2.items()))
class TestBuiltTopologies:
    def test_exact_size(self, name, expected):
        topo = isp_catalog.build(name, seed=0)
        assert (topo.node_count, topo.link_count) == expected

    def test_connected(self, name, expected):
        assert isp_catalog.build(name, seed=0).is_connected()


class TestDeterminism:
    def test_same_seed_same_topology(self):
        t1 = isp_catalog.build("AS209", seed=5)
        t2 = isp_catalog.build("AS209", seed=5)
        assert sorted(t1.links()) == sorted(t2.links())
        assert all(t1.position(n) == t2.position(n) for n in t1.nodes())

    def test_different_seed_different_topology(self):
        t1 = isp_catalog.build("AS209", seed=1)
        t2 = isp_catalog.build("AS209", seed=2)
        assert sorted(t1.links()) != sorted(t2.links())


class TestTreeBranchCharacter:
    def test_as7018_has_many_leaves(self):
        # §IV-B: AS7018's long phase-1 durations come from tree branches.
        from repro.topology.validation import leaf_count

        sparse = isp_catalog.build("AS7018", seed=0)
        dense = isp_catalog.build("AS3549", seed=0)
        assert leaf_count(sparse) > leaf_count(dense)
