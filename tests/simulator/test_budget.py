"""Regression tests pinning every walk caller to the budget helpers.

The ``4 * x + 8`` hop-budget formula used to be duplicated across the
phase-1 walk, the exhaustive search, and the MRC walk loop; it now
lives only in :mod:`repro.simulator.budget`.  These tests pin the
formula itself, the behaviour of each caller, and — via a source scan —
that no caller grows its own inline copy again.
"""

import re
from pathlib import Path

from repro.core import run_phase1
from repro.core.phase1 import SweepWalkSpec
from repro.failures import FailureScenario, LocalView
from repro.simulator import (
    HOP_BUDGET_FACTOR,
    HOP_BUDGET_SLACK,
    ForwardingEngine,
    table_walk_hop_budget,
    walk_hop_budget,
)
from repro.topology import Link

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
    def test_engine_default_budget_is_helper(self, ring8, monkeypatch):
        # run_phase1 gives its sweep walk_hop_budget(link count) hops.
        budgets = []
        real_walk = SweepWalkSpec.walk

        def spy(spec, engine, packet, accounting):
            budgets.append(spec.budget)
            return real_walk(spec, engine, packet, accounting)

        monkeypatch.setattr(SweepWalkSpec, "walk", spy)
        view = LocalView(FailureScenario(ring8, failed_links=[Link.of(4, 5)]))
        result = run_phase1(ring8, view, 4, 5, ForwardingEngine(ring8, view))
        assert result.complete and budgets == [walk_hop_budget(ring8.link_count)]

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
