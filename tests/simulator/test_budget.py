"""Regression tests pinning every walk caller to the budget helpers.

The ``4 * x + 8`` hop-budget formula used to be duplicated across the
engine default, the exhaustive search, and the MRC walk loop; it now
lives only in :mod:`repro.simulator.budget`.  These tests pin the
formula itself, the behaviour of each caller, and — via a source scan —
that no caller grows its own inline copy again.
"""

import re
from pathlib import Path

import pytest

from repro.errors import ForwardingLoopError
from repro.failures import FailureScenario, LocalView
from repro.simulator import (
    HOP_BUDGET_FACTOR,
    HOP_BUDGET_SLACK,
    ForwardingEngine,
    Packet,
    RecoveryAccounting,
    table_walk_hop_budget,
    walk_hop_budget,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestFormula:
    def test_walk_budget_formula(self):
        assert walk_hop_budget(0) == HOP_BUDGET_SLACK
        assert walk_hop_budget(10) == HOP_BUDGET_FACTOR * 10 + HOP_BUDGET_SLACK
        assert walk_hop_budget(161) == 4 * 161 + 8  # AS7018-sized

    def test_table_budget_formula(self):
        assert table_walk_hop_budget(0) == HOP_BUDGET_SLACK
        assert table_walk_hop_budget(25) == HOP_BUDGET_FACTOR * 25 + HOP_BUDGET_SLACK


class TestCallers:
    def test_engine_default_budget_is_helper(self, ring8):
        # An endless walk on the 8-ring (8 links) must be cut off after
        # exactly walk_hop_budget(8) hops by the engine's default.
        scenario = FailureScenario(ring8)
        engine = ForwardingEngine(ring8, LocalView(scenario))
        packet = Packet(source=0, destination=0)
        with pytest.raises(ForwardingLoopError) as exc:
            engine.walk(packet, lambda n, p: (n + 1) % 8, RecoveryAccounting())
        assert len(exc.value.walk) == walk_hop_budget(ring8.link_count) + 1

    def test_mrc_spec_budget_is_helper(self, ring8):
        from repro.schemes.mrc import MRC
        from repro.routing import RoutingTable

        scenario = FailureScenario(ring8)
        mrc = MRC(ring8, scenario, routing=RoutingTable(ring8))
        plan = mrc.plan_recovery(0, 4, trigger_neighbor=1)
        assert plan.immediate is None
        assert plan.spec.budget == table_walk_hop_budget(ring8.node_count)

    def test_exhaustive_budget_is_helper(self):
        source = (SRC / "core" / "exhaustive.py").read_text()
        assert "walk_hop_budget" in source


def test_no_inline_budget_formula_outside_helper():
    """No module but budget.py may spell the ``4 * x + 8`` formula inline."""
    pattern = re.compile(r"\b4\s*\*\s*[\w.]+\s*\+\s*8\b")
    offenders = []
    for path in SRC.rglob("*.py"):
        if path.name == "budget.py":
            continue
        if pattern.search(path.read_text()):
            offenders.append(str(path.relative_to(SRC)))
    assert offenders == []
