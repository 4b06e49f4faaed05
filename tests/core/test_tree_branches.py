"""Tree-branch behaviour of the phase-1 walk (§IV-B).

The paper attributes AS7018's long first phases to tree branches: "each
link on a tree branch may be traversed twice".  These tests pin that
mechanism on purpose-built topologies.
"""

from repro.core import RTR, run_phase1
from repro.failures import FailureScenario, LocalView
from repro.geometry import Circle, Point
from repro.simulator import ForwardingEngine, ForwardingTrace
from repro.topology import Link, Topology

from ..conftest import star_topology


def star_with_ring() -> Topology:
    """A 4-node ring with a 3-hop branch hanging off node 0.

    Ring: 0-1-2-3-0 (the cycle the walk uses); branch: 0-10-11-12.
    """
    topo = Topology("ring-with-branch")
    topo.add_node(0, Point(0, 0))
    topo.add_node(1, Point(200, 0))
    topo.add_node(2, Point(200, 200))
    topo.add_node(3, Point(0, 200))
    topo.add_link(0, 1)
    topo.add_link(1, 2)
    topo.add_link(2, 3)
    topo.add_link(3, 0)
    topo.add_node(10, Point(-200, -10))
    topo.add_node(11, Point(-400, -20))
    topo.add_node(12, Point(-600, -30))
    topo.add_link(0, 10)
    topo.add_link(10, 11)
    topo.add_link(11, 12)
    return topo


class TestBranchDoubleTraversal:
    def test_branch_links_traversed_twice(self):
        topo = star_with_ring()
        # Fail the ring link 0-1: the walk from 0 tours the ring but the
        # sweep also dives down the branch and back.
        scenario = FailureScenario(topo, failed_links=[Link.of(0, 1)])
        view = LocalView(scenario)
        trace = ForwardingTrace()
        engine = ForwardingEngine(topo, view, trace=trace)
        result = run_phase1(topo, view, 0, 1, engine)
        links = [event.link for event in trace.events]
        for link in (Link.of(0, 10), Link.of(10, 11), Link.of(11, 12)):
            assert links.count(link) == 2, f"{link} must be out-and-back"
        assert result.walk[0] == result.walk[-1] == 0

    def test_pure_star_walk_visits_all_leaves(self):
        # The extreme case: a hub loses one spoke; the walk from the hub
        # must bounce through every remaining leaf and return.
        topo = star_topology(6)
        scenario = FailureScenario(topo, failed_links=[Link.of(0, 1)])
        view = LocalView(scenario)
        engine = ForwardingEngine(topo, view)
        result = run_phase1(topo, view, 0, 1, engine)
        assert result.walk[0] == result.walk[-1] == 0
        # 5 surviving leaves, each out-and-back = 10 hops.
        assert result.hops == 10
        assert set(result.walk) == {0, 2, 3, 4, 5, 6}

    def test_leaf_initiator(self):
        # A leaf losing its only link is isolated: empty walk, and the
        # destination is correctly declared unreachable.
        topo = star_topology(4)
        scenario = FailureScenario(topo, failed_links=[Link.of(0, 1)])
        rtr = RTR(topo, scenario)
        result = rtr.recover(1, 3, 0)
        assert not result.delivered
        assert result.phase1_hops == 0
        assert result.drop_hops == 0

    def test_branch_failure_area(self):
        # An area swallowing the branch tip: the walk still terminates and
        # reports the right failed link.
        topo = star_with_ring()
        scenario = FailureScenario.from_region(topo, Circle(Point(-600, -30), 50))
        assert scenario.failed_nodes == frozenset({12})
        view = LocalView(scenario)
        engine = ForwardingEngine(topo, view)
        result = run_phase1(topo, view, 11, 12, engine)
        assert result.walk[0] == result.walk[-1] == 11
        assert result.local_failed_links == [Link.of(11, 12)]
