"""The ``scale`` generator, the public-format loader, and spec resolution."""

from __future__ import annotations

import json

import pytest

from repro.errors import EvaluationError, TopologyError
from repro.topology import topology_from_spec
from repro.topology.io import (
    load_graph_file,
    parse_graphml,
    save_topology,
    sniff_graph_format,
    topology_to_dict,
)
from repro.topology.scale import MAX_NODES, MIN_NODES, scale_topology


class TestScaleGenerator:
    def test_exact_node_count(self):
        for n in (16, 100, 1000, 2048):
            assert scale_topology(n, seed=0).node_count == n

    def test_connected_and_unit_cost(self):
        topo = scale_topology(500, seed=2)
        assert topo.is_connected()
        for link in topo.links():
            assert topo.cost(link.u, link.v) == 1.0
            assert topo.cost(link.v, link.u) == 1.0

    def test_deterministic_per_seed(self):
        a = json.dumps(topology_to_dict(scale_topology(300, seed=7)))
        b = json.dumps(topology_to_dict(scale_topology(300, seed=7)))
        c = json.dumps(topology_to_dict(scale_topology(300, seed=8)))
        assert a == b
        assert a != c

    def test_dual_homing_bounds_degree(self):
        """Access routers are dual-homed: minimum degree 2 everywhere."""
        topo = scale_topology(400, seed=1)
        assert min(topo.degree(v) for v in topo.nodes()) >= 2

    def test_range_enforced(self):
        with pytest.raises(TopologyError):
            scale_topology(MIN_NODES - 1)
        with pytest.raises(TopologyError):
            scale_topology(MAX_NODES + 1)


class TestScaleSpec:
    def test_plain_and_k_suffix(self):
        assert topology_from_spec("scale:100").node_count == 100
        assert topology_from_spec("scale:2k").node_count == 2000

    def test_seed_flows_through(self):
        a = topology_to_dict(topology_from_spec("scale:100", seed=1))
        b = topology_to_dict(topology_from_spec("scale:100", seed=2))
        assert a != b

    def test_malformed_spec_is_usage_error(self):
        with pytest.raises(EvaluationError, match="malformed scale spec"):
            topology_from_spec("scale:10x")

    def test_out_of_range_is_usage_error(self):
        with pytest.raises(EvaluationError, match="bad scale spec"):
            topology_from_spec("scale:2")


GRAPHML = """<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d1" for="edge" attr.name="weight" attr.type="double"/>
  <graph edgedefault="undirected">
    <node id="a"/><node id="b"/><node id="c"/><node id="d"/>
    <edge source="a" target="b"><data key="d1">3</data></edge>
    <edge source="b" target="c"><data key="d1">2</data></edge>
    <edge source="c" target="a"/>
    <edge source="c" target="d"><data key="d1">5</data></edge>
  </graph>
</graphml>
"""

EDGE_LIST = """# comment
1 2 4
2 3 1
3 1 2
7 8 1
"""


class TestLoader:
    def test_graphml_weights_and_default(self, tmp_path):
        path = tmp_path / "zoo.graphml"
        path.write_text(GRAPHML)
        topo = load_graph_file(path, seed=0)
        assert topo.node_count == 4 and topo.link_count == 4
        costs = sorted(
            topo.cost(link.u, link.v) for link in topo.links()
        )
        assert costs == [1.0, 2.0, 3.0, 5.0]  # un-keyed edge defaults to 1

    def test_graphml_malformed_rejected(self):
        with pytest.raises(TopologyError, match="malformed GraphML"):
            parse_graphml("<graphml><unclosed>")

    def test_graphml_no_edges_rejected(self):
        with pytest.raises(TopologyError, match="no edges"):
            parse_graphml("<graphml></graphml>")

    def test_edge_list_largest_component(self, tmp_path):
        path = tmp_path / "weights.intra"
        path.write_text(EDGE_LIST)
        topo = load_graph_file(path, seed=0)
        # The 7-8 islet is dropped: routing needs a connected graph.
        assert topo.node_count == 3
        assert topo.is_connected()

    def test_embedding_is_seeded(self, tmp_path):
        path = tmp_path / "weights.intra"
        path.write_text(EDGE_LIST)
        a = topology_to_dict(load_graph_file(path, seed=1))
        b = topology_to_dict(load_graph_file(path, seed=1))
        c = topology_to_dict(load_graph_file(path, seed=2))
        assert a == b
        assert a != c

    def test_json_round_trip_via_file_spec(self, tmp_path):
        topo = scale_topology(64, seed=4)
        path = tmp_path / "t.json"
        save_topology(topo, path)
        loaded = topology_from_spec(f"file:{path}")
        assert topology_to_dict(loaded) == topology_to_dict(topo)

    @pytest.mark.parametrize(
        "x, cost", [("NaN", "1.0"), ("3.0", "Infinity"), ("-Infinity", "1.0"), ("3.0", "NaN")]
    )
    def test_non_finite_json_is_usage_error(self, tmp_path, x, cost):
        # json accepts these literals; the topology must not.
        path = tmp_path / "t.json"
        path.write_text(
            '{"format": 1, "nodes": ['
            f'{{"id": 0, "x": 0.0, "y": 0.0}}, {{"id": 1, "x": {x}, "y": 5.0}}, '
            '{"id": 2, "x": 10.0, "y": 0.0}, {"id": 3, "x": 10.0, "y": 10.0}], "links": ['
            '{"u": 0, "v": 2, "cost": 1.0, "reverse_cost": 1.0}, '
            f'{{"u": 1, "v": 3, "cost": {cost}, "reverse_cost": 1.0}}]}}'
        )
        with pytest.raises(EvaluationError, match="cannot load topology"):
            topology_from_spec(f"file:{path}")

    def test_sniffing(self, tmp_path):
        assert sniff_graph_format(tmp_path / "x.graphml", "") == "graphml"
        assert sniff_graph_format(tmp_path / "x.json", "") == "json"
        assert sniff_graph_format(tmp_path / "x.cch", "") == "cch"
        assert sniff_graph_format(tmp_path / "x.txt", "{}") == "json"
        assert (
            sniff_graph_format(tmp_path / "x.txt", "<graphml xmlns='...'>")
            == "graphml"
        )
        assert sniff_graph_format(tmp_path / "x.txt", "1 2 3") == "edges"

    def test_missing_file_spec_is_usage_error(self):
        with pytest.raises(EvaluationError, match="not found"):
            topology_from_spec("file:/no/such/file.graphml")

    def test_empty_file_spec_is_usage_error(self):
        with pytest.raises(EvaluationError, match="empty"):
            topology_from_spec("file:")
