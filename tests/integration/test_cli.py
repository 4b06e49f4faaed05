"""Tests for the repro CLI."""

import pytest

from repro.cli import main


class TestTopoCommands:
    def test_list(self, capsys):
        assert main(["topo", "list"]) == 0
        out = capsys.readouterr().out
        assert "AS7018" in out
        assert "AS2914" not in out

    def test_list_extended(self, capsys):
        assert main(["topo", "list", "--extended"]) == 0
        assert "AS2914" in capsys.readouterr().out

    def test_build_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        assert main(["topo", "build", "AS1239", "-o", str(out_file)]) == 0
        assert out_file.exists()

    def test_build_without_file(self, capsys):
        assert main(["topo", "build", "as1239"]) == 0
        assert "nodes=52" in capsys.readouterr().out

    def test_stats_from_catalog(self, capsys):
        assert main(["topo", "stats", "AS209"]) == 0
        assert "58" in capsys.readouterr().out

    def test_stats_from_file(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        main(["topo", "build", "AS1239", "-o", str(out_file)])
        capsys.readouterr()
        assert main(["topo", "stats", str(out_file)]) == 0
        assert "52" in capsys.readouterr().out


class TestRecoverCommand:
    def test_random_failure(self, capsys):
        assert main(["recover", "--topology", "AS1239", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "phase 1" in out

    def test_explicit_circle(self, capsys):
        code = main(
            [
                "recover",
                "--topology",
                "AS209",
                "--cx", "1000", "--cy", "1000", "--radius", "300",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "failure" in out or "destroyed nothing" in out

    def test_harmless_circle_fails_cleanly(self, capsys):
        code = main(
            [
                "recover",
                "--topology", "AS209",
                "--cx", "99999", "--cy", "99999", "--radius", "1",
            ]
        )
        assert code == 1


class TestErrorHygiene:
    """Usage errors: one ``error:`` line on stderr, exit 2, no traceback."""

    def test_recover_unknown_topology(self, capsys):
        assert main(["recover", "--topology", "nosuch.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "unknown topology" in err

    def test_recover_malformed_grid(self, capsys):
        assert main(["recover", "--topology", "grid:1x1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "2x2" in err

    def test_eval_unknown_topology(self, capsys):
        assert main(["eval", "table3", "--cases", "2", "--topos", "BOGUS"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "BOGUS" in err

    def test_eval_unknown_scheme(self, capsys):
        code = main(
            ["eval", "table3", "--cases", "2", "--topos", "AS1239",
             "--approaches", "rtr"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown recovery scheme 'rtr'" in err

    def test_grid_spec_accepted(self, capsys):
        assert main(["topo", "stats", "grid:3x3:200"]) == 0
        assert "9" in capsys.readouterr().out


class TestEvalCommand:
    def test_table2(self, capsys):
        assert main(["eval", "table2"]) == 0
        assert "AS3549" in capsys.readouterr().out

    def test_table3_small(self, capsys):
        assert (
            main(["eval", "table3", "--cases", "20", "--topos", "AS1239"]) == 0
        )
        out = capsys.readouterr().out
        assert "RTR" in out and "MRC" in out

    def test_fig8_small(self, capsys):
        assert main(["eval", "fig8", "--cases", "20", "--topos", "AS1239"]) == 0
        assert "p50=1" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["eval", "fig99"])


class TestTrafficCommand:
    def test_small_sweep(self, capsys):
        code = main(
            [
                "traffic",
                "--topos", "AS1239",
                "--scenarios", "2",
                "--flows", "20000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "demand_recovery_rate_pct" in out
        assert "Overall" in out
        assert "RTR" in out and "FCP" in out

    def test_unknown_model_rejected(self, capsys):
        code = main(
            ["traffic", "--topos", "AS1239", "--model", "antigravity"]
        )
        assert code == 2
        assert "unknown traffic model" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        code = main(
            [
                "traffic",
                "--topos", "AS209",
                "--scenarios", "1",
                "--flows", "1000",
                "--parallel",
                "--jobs", jobs,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"


class TestObsReportErrors:
    def test_missing_run_dir(self, capsys, tmp_path):
        code = main(["obs", "report", str(tmp_path / "nope")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one clear line, not a traceback
        assert "does not exist" in err

    def test_empty_run_dir(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["obs", "report", str(empty)])
        assert code == 1
        err = capsys.readouterr().err
        assert "not an instrumented run" in err
        assert "manifest.json" in err

    def test_no_runs_under_base(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "none"))
        code = main(["obs", "report"])
        assert code == 1
        assert "no instrumented runs" in capsys.readouterr().err


class TestRenderCommand:
    def test_plain_topology(self, tmp_path, capsys):
        target = tmp_path / "t.svg"
        assert (
            main(["render", "--topology", "AS1239", "-o", str(target)]) == 0
        )
        assert target.exists()
        assert target.read_text().startswith("<svg")

    def test_with_failure(self, tmp_path, capsys):
        target = tmp_path / "f.svg"
        assert (
            main(
                [
                    "render", "--topology", "AS1239", "--failure",
                    "--seed", "1", "-o", str(target),
                ]
            )
            == 0
        )
        assert "polyline" in target.read_text()


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out
