"""Tests for repro.simulator.delays."""

import pytest

from repro.simulator import (
    PaperDelayModel,
    PAPER_PROPAGATION_S,
    ROUTER_DELAY_S,
)
from repro.topology import Link


class TestPaperDelayModel:
    def test_one_hop_is_1_8_ms(self, ring8):
        # §IV-B: 100 us router + 1.7 ms propagation.
        model = PaperDelayModel()
        delay = model.hop_delay(ring8, Link.of(0, 1))
        assert delay == pytest.approx(1.8e-3)

    def test_independent_of_link_length(self, grid5):
        model = PaperDelayModel()
        assert model.hop_delay(grid5, Link.of(0, 1)) == model.hop_delay(
            grid5, Link.of(0, 5)
        )

    def test_constants_match_paper(self):
        assert ROUTER_DELAY_S == pytest.approx(100e-6)
        assert PAPER_PROPAGATION_S == pytest.approx(1.7e-3)

