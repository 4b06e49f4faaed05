"""The records -> table reductions shared by serial and sharded drivers.

``Overall`` must summarize the records of every topology pooled
together (the paper's last table row), never average the per-topology
rows; ``Savings`` is the RTR-over-FCP headline and needs both.
"""

import pytest

from repro.eval.experiments import (
    TrafficSweep,
    _cases_and_records,
    table3_from_records,
    table4_from_records,
    traffic_table_from_records,
)
from repro.eval.metrics import summarize_irrecoverable, summarize_recoverable
from repro.traffic import summarize_traffic

APPROACHES = ("RTR", "FCP")


@pytest.fixture(scope="module")
def case_records():
    _, records = _cases_and_records("AS209", 15, 15, 4, APPROACHES)
    return records


def _uneven_split(records, recoverable, key):
    """Two pseudo-topologies: the single largest-``key`` case, and the rest."""
    kept = {a: [r for r in records[a] if r.case.recoverable == recoverable] for a in records}
    top = max(range(len(kept["FCP"])), key=lambda i: key(kept["FCP"][i]))
    one = {a: [rs[top]] for a, rs in kept.items()}
    rest = {a: rs[:top] + rs[top + 1 :] for a, rs in kept.items()}
    return kept, [("one", one), ("rest", rest)]


def test_table3_overall_pools_records(case_records):
    kept, split = _uneven_split(
        case_records, True, lambda r: r.result.sp_computations
    )
    table = table3_from_records(split, APPROACHES)
    assert list(table) == ["one", "rest", "Overall"]
    for a in APPROACHES:
        assert table["Overall"][a] == summarize_recoverable(kept[a]).as_dict()
        assert table["Overall"][a]["cases"] == 15
    rows = [table[name]["FCP"]["mean_sp_computations"] for name in ("one", "rest")]
    assert table["Overall"]["FCP"]["mean_sp_computations"] != pytest.approx(
        sum(rows) / 2
    )


def test_table3_ignores_irrecoverable_records(case_records):
    table = table3_from_records([("AS209", case_records)], APPROACHES)
    assert table["AS209"]["RTR"]["cases"] == 15
    assert "Savings" not in table


def test_table4_overall_pools_records_and_reports_savings(case_records):
    kept, split = _uneven_split(
        case_records, False, lambda r: r.result.sp_computations
    )
    table = table4_from_records(split, APPROACHES)
    assert list(table) == ["one", "rest", "Overall", "Savings"]
    overall = {a: summarize_irrecoverable(kept[a]) for a in APPROACHES}
    for a in APPROACHES:
        assert table["Overall"][a] == overall[a].as_dict()
    rows = [table[name]["FCP"]["avg_wasted_computation"] for name in ("one", "rest")]
    assert table["Overall"]["FCP"]["avg_wasted_computation"] != pytest.approx(
        sum(rows) / 2
    )
    saved = 1.0 - (
        overall["RTR"].avg_wasted_computation / overall["FCP"].avg_wasted_computation
    )
    assert table["Savings"]["computation_saved_pct"] == round(100.0 * saved, 1)


@pytest.mark.parametrize("approaches", [("RTR",), ("FCP",)])
def test_table4_savings_needs_both_rtr_and_fcp(case_records, approaches):
    table = table4_from_records([("AS209", case_records)], approaches)
    assert list(table) == ["AS209", "Overall"]


def test_traffic_overall_pools_records():
    engine, scenarios = TrafficSweep(
        "AS209", 3, 2, "gravity", None, 5_000, APPROACHES, False, None, None
    ).build()
    records = engine.run_sweep(scenarios)
    split = [
        ("one", {a: records[a][:1] for a in APPROACHES}),
        ("rest", {a: records[a][1:] for a in APPROACHES}),
    ]
    table = traffic_table_from_records(split, APPROACHES)
    assert list(table) == ["one", "rest", "Overall"]
    for a in APPROACHES:
        assert table["Overall"][a] == summarize_traffic(records[a]).as_dict()
        assert table["Overall"][a]["scenarios"] == 3
    rows = [table[name]["RTR"]["disrupted_demand"] for name in ("one", "rest")]
    assert table["Overall"]["RTR"]["disrupted_demand"] == pytest.approx(
        sum(rows), abs=2e-3
    )
    assert rows[0] != rows[1]
