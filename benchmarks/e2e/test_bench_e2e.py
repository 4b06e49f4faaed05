"""Self-test of the end-to-end benchmark harness (smoke-sized, under a minute).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; it is not
part of tier-1's ``testpaths``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-e2e") / "smoke.json"
    proc = run("--smoke", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    return path, json.loads(path.read_text())


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_benchmark_json_lists_the_harness_metrics():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == metrics.PER_LAYER
    for metric in BENCHMARK["end_to_end"]:
        assert metrics.END_TO_END[metric["name"]] == (metric["unit"], metric["better"])


def test_smoke_report_has_every_declared_workload_and_metric(smoke):
    _path, report = smoke
    assert report["provenance"]["seed"] == 0 and report["provenance"]["smoke"] is True
    assert set(report["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, result in report["workloads"].items():
        assert result["failed"] == 0, (name, result["violations"])
        assert len(result["result_digest"]) == 64
        for metric in BENCHMARK["end_to_end"]:
            entry = result["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"] and entry["n"] >= 1 and entry["median"] > 0
        assert result["end_to_end"]["failed_share"]["median"] == 0
        for metric in BENCHMARK["per_layer"]:
            assert result["per_layer"][metric["name"]]["unit"] == metric["unit"]
        assert result["per_layer"]["bench.wrappers_missing"]["value"] == 0


def test_compare_of_a_report_with_itself_is_all_ok(smoke):
    path, _report = smoke
    proc = run("--compare", str(path), str(path))
    assert proc.returncode == 0, proc.stdout
    verdicts = [line.split()[-1] for line in proc.stdout.splitlines()[1:]]
    assert verdicts and set(verdicts) <= {"ok", "equal"}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_run_ends_with_the_result_line(trace):
    proc = run("--workload", "traffic_isp", "--smoke", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", ["paper_tables", "congestion_isp"])
def test_injected_invariant_violation_fails_the_run(workload):
    proc = run("--workload", workload, "--smoke", "--seconds", "1", "--inject-violation")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    share = next(line for line in proc.stdout.splitlines() if "failed_share" in line)
    assert float(share.split()[1]) > 0
