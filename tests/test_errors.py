"""Tests for the repro exception hierarchy."""

import pytest

from repro.errors import (
    ChaosError,
    EvaluationError,
    ForwardingLoopError,
    NoPathError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
    UnknownLinkError,
    UnknownNodeError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_type",
        [
            TopologyError,
            RoutingError,
            SimulationError,
            ChaosError,
            EvaluationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)

    def test_unknown_node_is_topology_error(self):
        assert issubclass(UnknownNodeError, TopologyError)

    def test_no_path_is_routing_error(self):
        assert issubclass(NoPathError, RoutingError)

    def test_forwarding_loop_is_simulation_error(self):
        assert issubclass(ForwardingLoopError, SimulationError)


class TestPayloads:
    def test_unknown_node_carries_id(self):
        exc = UnknownNodeError(42)
        assert exc.node == 42
        assert "42" in str(exc)

    def test_unknown_link_carries_link(self):
        from repro.topology import Link

        exc = UnknownLinkError(Link.of(1, 2))
        assert exc.link == Link.of(1, 2)

    def test_no_path_carries_endpoints(self):
        exc = NoPathError(3, 9)
        assert (exc.source, exc.destination) == (3, 9)
        assert "3" in str(exc) and "9" in str(exc)

    def test_forwarding_loop_carries_walk(self):
        exc = ForwardingLoopError("stuck", [1, 2, 3])
        assert exc.walk == [1, 2, 3]

    def test_single_catch_all(self):
        # The documented contract: one except clause catches the library.
        try:
            raise NoPathError(0, 1)
        except ReproError as exc:
            assert isinstance(exc, NoPathError)
