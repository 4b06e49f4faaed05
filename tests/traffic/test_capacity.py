"""Tests for repro.traffic.capacity (loads, provisioning, overload)."""

import hashlib

import pytest

from repro.errors import UnknownLinkError
from repro.routing import RoutingTable
from repro.topology import Link, topology_from_spec
from repro.traffic import (
    DEFAULT_HEADROOM,
    LinkLoadMap,
    TrafficMatrix,
    baseline_loads,
    generate_matrix,
    provision_capacities,
)


class TestBaselineLoads:
    def test_line_topology_loads(self, tiny_line):
        # 0 - 1 - 2: the (0,2)/(2,0) demands cross both links.
        matrix = TrafficMatrix({(0, 2): 6.0, (2, 0): 4.0, (0, 1): 2.0})
        loads = baseline_loads(tiny_line, matrix)
        assert loads.load(Link.of(0, 1)) == pytest.approx(12.0)
        assert loads.load(Link.of(1, 2)) == pytest.approx(10.0)

    def test_deterministic(self, grid5):
        from repro.traffic import gravity_matrix

        matrix = gravity_matrix(grid5, seed=4)
        a = baseline_loads(grid5, matrix)
        b = baseline_loads(grid5, matrix)
        assert a.lid_loads() == b.lid_loads()


class TestProvisioning:
    def test_headroom_over_baseline(self, tiny_line):
        matrix = TrafficMatrix({(0, 2): 6.0})
        capacities = provision_capacities(tiny_line, matrix)
        assert capacities[Link.of(0, 1)] == pytest.approx(
            DEFAULT_HEADROOM * 6.0
        )
        assert tiny_line.link_capacity(Link.of(0, 1)) == pytest.approx(
            DEFAULT_HEADROOM * 6.0
        )

    def test_idle_links_get_floor(self, grid5):
        matrix = TrafficMatrix({(0, 1): 10.0})
        capacities = provision_capacities(grid5, matrix)
        assert all(c > 0.0 for c in capacities.values())
        assert len(capacities) == len(list(grid5.links()))

    def test_as7018_capacities_are_pinned(self):
        """Every provisioned capacity, ``float.hex`` for ``float.hex``, in link order.

        The digest was taken before loads were accumulated by link id
        (per-destination ``sorted`` link dicts); the per-link float sums,
        hence the capacities, did not move.
        """
        topo = topology_from_spec("AS7018", seed=3)
        capacities = provision_capacities(topo, generate_matrix(topo, "gravity", seed=3))
        text = "\n".join(
            f"{link.u},{link.v},{capacities[link].hex()}" for link in topo.links()
        )
        assert len(capacities) == 148
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "daa7e81eba69df7c3d14398bb46ad133c655f5379f10f8a7c4799a94bcc2e99a"
        )

    def test_intact_network_never_overloaded(self, grid5):
        from repro.traffic import gravity_matrix

        matrix = gravity_matrix(grid5, seed=1)
        routing = RoutingTable(grid5)
        provision_capacities(grid5, matrix, routing)
        summary = baseline_loads(grid5, matrix, routing).summary()
        assert summary.max_utilization <= 1.0 / DEFAULT_HEADROOM + 1e-9
        assert summary.overloaded == []


class TestLinkLoadMap:
    def test_add_path_and_utilization(self, tiny_line):
        tiny_line.set_link_capacity(Link.of(0, 1), 10.0)
        tiny_line.set_link_capacity(Link.of(1, 2), 4.0)
        loads = LinkLoadMap(tiny_line)
        loads.add_links([Link.of(0, 1), Link.of(1, 2)], 8.0)
        assert loads.load(Link.of(0, 1)) == 8.0
        assert loads.utilization(Link.of(0, 1)) == pytest.approx(0.8)
        assert loads.summary().max_utilization == pytest.approx(2.0)

    def test_overload_queries(self, tiny_line):
        tiny_line.set_link_capacity(Link.of(0, 1), 10.0)
        tiny_line.set_link_capacity(Link.of(1, 2), 4.0)
        loads = LinkLoadMap(tiny_line)
        loads.add_links([Link.of(0, 1), Link.of(1, 2)], 8.0)
        summary = loads.summary()
        assert [link for link, _ in summary.overloaded] == [Link.of(1, 2)]
        assert summary.overload_demand == pytest.approx(4.0)

    def test_zero_demand_ignored(self, tiny_line):
        loads = LinkLoadMap(tiny_line)
        loads.add_link(Link.of(0, 1), 0.0)
        assert len(loads) == 0

    def test_unknown_links_are_refused_by_the_add(self, tiny_line):
        """Every link-level add checks its links before it adds anything."""
        loads = LinkLoadMap(tiny_line)
        missing = Link.of(0, 2)
        for add in (
            lambda: loads.add_link(missing, 1.0),
            lambda: loads.add_links([Link.of(0, 1), missing], 1.0),
            lambda: loads.add_link(missing, 0.0),  # even with nothing to add
        ):
            with pytest.raises(UnknownLinkError) as err:
                add()
            assert err.value.link == missing
        assert loads.loads() == {} and len(loads) == 0
        with pytest.raises(UnknownLinkError):
            loads.load(missing)

    def test_queries_read_capacities_set_after_the_map(self, tiny_line):
        """Capacities are read live: a later ``set_link_capacity`` moves every query."""
        loads = LinkLoadMap(tiny_line)
        loads.add_links([Link.of(0, 1), Link.of(1, 2)], 8.0)
        assert loads.summary()[1:] == (0.0, [], 0.0)  # nothing provisioned yet
        tiny_line.set_link_capacity(Link.of(1, 2), 4.0)
        assert loads.utilization(Link.of(1, 2)) == 2.0
        assert loads.summary()[1:] == (2.0, [(Link.of(1, 2), 2.0)], 4.0)
        tiny_line.set_link_capacity(Link.of(1, 2), 16.0)
        tiny_line.set_link_capacity(Link.of(0, 1), 2.0)
        summary = loads.summary()
        assert summary.overloaded == [(Link.of(0, 1), 4.0)]
        assert summary.max_utilization == 4.0
        assert sum(summary.histogram) == 2 and summary.histogram[10] == 1  # 0.5


class TestCapacityMetadata:
    def test_capacity_survives_copy(self, tiny_line):
        link = Link.of(0, 1)
        tiny_line.set_link_capacity(link, 5.0)
        clone = tiny_line.copy()
        assert clone.link_capacity(link) == 5.0

    def test_capacity_does_not_invalidate_csr(self, tiny_line):
        # Capacities are pure metadata: the cached CSR view (and with it
        # every SPT cache entry keyed on the version) must survive.
        view = tiny_line.csr()
        tiny_line.set_link_capacity(Link.of(0, 1), 5.0)
        assert tiny_line.csr() is view

    def test_unknown_link_rejected(self, tiny_line):
        from repro.errors import UnknownLinkError

        with pytest.raises(UnknownLinkError):
            tiny_line.set_link_capacity(Link.of(0, 2), 5.0)

    def test_nonpositive_capacity_rejected(self, tiny_line):
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            tiny_line.set_link_capacity(Link.of(0, 1), 0.0)

    def test_copy_after_a_removal_keeps_every_capacity(self, grid5):
        """The copy renumbers links past a retired id; capacities follow their link."""
        links = sorted(grid5.links())
        for i, link in enumerate(links):
            grid5.set_link_capacity(link, 1.0 + i)
        grid5.remove_link(links[0].u, links[0].v)
        clone = grid5.copy()
        for link in grid5.links():
            assert clone.link_capacity(link) == grid5.link_capacity(link)
        assert len(clone.lid_capacities()) == len(grid5.lid_capacities()) - 1

    def test_remove_link_drops_capacity(self, grid5):
        link = next(iter(sorted(grid5.links())))
        grid5.set_link_capacity(link, 5.0)
        lid = grid5.link_index(link)
        grid5.remove_link(link.u, link.v)
        assert grid5.lid_capacities()[lid] is None
