"""Fig. 13 — CDF of wasted transmission on irrecoverable test cases.

Paper claims to reproduce (shape): RTR outperforms FCP in every topology;
RTR discards packets toward unreachable destinations at the initiator
(wasting nothing) except in the rare missed-failure cases, while FCP tries
every possible link before giving up.
"""

from _bench_utils import BASE_CASES, QUICK_TOPOLOGIES, emit, emit_figure

from repro.eval import experiments
from repro.eval.report import format_cdf
from repro.viz import cdf_chart


def test_fig13_wasted_transmission(run_once):
    out = run_once(
        experiments.fig13_wasted_transmission,
        topologies=QUICK_TOPOLOGIES,
        n_cases=BASE_CASES,
        seed=0,
    )
    lines = []
    for name, series in out.items():
        for approach, cdf in series.items():
            lines.append(f"{name:8s} {approach:4s} wasted bytes*hops  {format_cdf(cdf)}")
    emit("fig13_wasted_transmission", "\n".join(lines))
    emit_figure(
        "fig13_wasted_transmission",
        cdf_chart(
            {
                f"{approach} ({name})": cdf
                for name, per_approach in out.items()
                for approach, cdf in per_approach.items()
            },
            title="Fig. 13 — wasted transmission (irrecoverable)",
            x_label="wasted transmission (bytes x hops)",
        ),
    )

    for name in QUICK_TOPOLOGIES:
        rtr_values = [x for x, _ in out[name]["RTR"]]
        fcp_values = [x for x, _ in out[name]["FCP"]]
        # At every probe point RTR's CDF dominates (is left of) FCP's.
        rtr_median = next(x for x, p in out[name]["RTR"] if p >= 0.5)
        fcp_median = next(x for x, p in out[name]["FCP"] if p >= 0.5)
        assert rtr_median <= fcp_median, name
        assert max(rtr_values) <= max(fcp_values) * 2, name
