"""The §IV-B hop clock: 100 us through a router plus 1.7 ms propagation."""

import pytest

from repro.failures import FailureScenario, LocalView
from repro.simulator import (
    HOP_DELAY_S,
    PAPER_PROPAGATION_S,
    ROUTER_DELAY_S,
    ForwardingEngine,
    Packet,
    RecoveryAccounting,
)
from repro.topology import Link


def hop_clock(topo, u, v):
    """The clock after one hop ``u -> v`` on a fresh accounting."""
    engine = ForwardingEngine(topo, LocalView(FailureScenario(topo)))
    acc = RecoveryAccounting()
    engine.forward_one_hop(Packet(source=u, destination=v), v, Link.of(u, v), acc)
    return acc.clock


class TestPaperDelayModel:
    def test_one_hop_is_1_8_ms(self, ring8):
        assert hop_clock(ring8, 0, 1) == pytest.approx(1.8e-3)
        assert hop_clock(ring8, 0, 1) == HOP_DELAY_S

    def test_independent_of_link_length(self, grid5):
        assert hop_clock(grid5, 0, 1) == hop_clock(grid5, 0, 5)

    def test_constants_match_paper(self):
        assert ROUTER_DELAY_S == pytest.approx(100e-6)
        assert PAPER_PROPAGATION_S == pytest.approx(1.7e-3)
        assert HOP_DELAY_S == ROUTER_DELAY_S + PAPER_PROPAGATION_S
