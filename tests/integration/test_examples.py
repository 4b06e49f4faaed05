"""Smoke tests: every example script must run to completion.

Examples are part of the public surface; they run in-process with small
arguments so failures point at real API breakage.
"""

import runpy
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, argv: list) -> None:
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name)] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py", ["7"])
        out = capsys.readouterr().out
        assert "phase 1 walk" in out or "broke no routing path" in out

    def test_paper_walkthrough(self, capsys):
        run_example("paper_walkthrough.py", [])
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "v6 -> v5 -> v12 -> v18 -> v17" in out

    def test_disaster_recovery(self, capsys):
        run_example("disaster_recovery.py", ["3"])
        out = capsys.readouterr().out
        assert "IGP convergence finishes" in out
        assert "recovered by RTR" in out

    def test_protocol_comparison(self, capsys):
        run_example("protocol_comparison.py", ["AS1239", "40"])
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "Table IV" in out
        assert "RTR saves" in out

    def test_planar_walkthrough(self, capsys):
        run_example("planar_walkthrough.py", [])
        out = capsys.readouterr().out
        assert "crossing-free: True" in out
        assert "identical without constraints: True" in out

    def test_visualize_recovery(self, tmp_path, capsys):
        run_example("visualize_recovery.py", [str(tmp_path)])
        assert (tmp_path / "paper_example.svg").exists()
        assert (tmp_path / "as1239_recovery.svg").exists()

    def test_multi_area_failures(self, capsys):
        run_example("multi_area_failures.py", ["4"])
        out = capsys.readouterr().out
        assert "area 1" in out or "area 2" in out

    def test_full_evaluation_tiny(self, capsys):
        run_example(
            "full_evaluation.py",
            ["--cases", "15", "--areas", "5", "--topos", "AS1239"],
        )
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Table IV" in out
        assert "Fig. 13" in out

    def test_custom_scheme(self, capsys):
        run_example("custom_scheme.py", ["AS209", "20"])
        out = capsys.readouterr().out
        assert "Detour" in out
        assert "RTR" in out
