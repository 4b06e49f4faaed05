#!/usr/bin/env python3
"""Add your own recovery scheme in under 50 lines.

``DetourScheme`` below is a complete, registered recovery scheme: the
initiator excludes the failed links it can *locally* see and
source-routes along the shortest detour around them.  It knows nothing
about the rest of the failure area, so detours that run back into it are
lost — a nice contrast to RTR, which collects the failure boundary
before rerouting.

Registration is the whole integration: the generic
:class:`~repro.eval.EvaluationRunner` sweep at the bottom runs the new
scheme next to RTR with zero edits to runner, sharding, or traffic code.
The CLI and parallel workers pick it up the same way:

    REPRO_SCHEME_MODULES=examples.custom_scheme \\
        python -m repro eval table3 --topos AS209 --approaches RTR,Detour

    python examples/custom_scheme.py [topology] [n_cases]
"""

import random
import sys

from repro.errors import SimulationError
from repro.failures import LocalView
from repro.schemes import RecoveryScheme, SchemeInstance, register_scheme
from repro.simulator import RecoveryAccounting, RecoveryResult, WalkPlan
from repro.topology import Link

# ---- the scheme: everything between these rules is the <50-line ask ----


class _DetourRouter:
    """Per-scenario state: one local view, one shared SPT cache."""

    def __init__(self, scheme: "DetourScheme", scenario) -> None:
        self.scheme = scheme
        self.scenario = scenario
        self.view = LocalView(scenario)

    def plan_recovery(self, initiator, destination, trigger_neighbor) -> WalkPlan:
        # No walk: the plan carries the result (walking schemes add a spec).
        if initiator in self.scenario.failed_nodes:
            raise SimulationError(f"recovery initiator {initiator} has failed")
        accounting = RecoveryAccounting()
        accounting.count_sp(1)
        known = set(self.view.locally_failed_links(initiator))
        path = self.scheme.sp_cache.shortest_path_or_none(
            self.scheme.topo, initiator, destination, excluded_links=known
        )
        # The detour survives only if it dodges the failures the
        # initiator could not see.
        delivered = path is not None and not (
            self.scenario.failed_nodes.intersection(path.nodes)
            or any(Link.of(a, b) in self.scenario.failed_links for a, b in path.hops())
        )
        return WalkPlan(
            immediate=RecoveryResult(
                approach=DetourScheme.name,
                delivered=delivered,
                path=path if delivered else None,
                accounting=accounting,
            )
        )


@register_scheme
class DetourScheme(RecoveryScheme):
    """Local detour: source-route around the locally visible failures."""

    name = "Detour"

    def _instantiate(self, scenario, penalty) -> SchemeInstance:
        # Load-oblivious: the window's live link penalty is not consulted.
        return SchemeInstance(self.name, _DetourRouter(self, scenario))


# ------------------------------------------------------------------------


def main(topology: str = "AS209", n_cases: int = 40) -> None:
    from repro.eval import EvaluationRunner, generate_cases, summarize_recoverable
    from repro.eval.report import format_table
    from repro.topology import isp_catalog

    topo = isp_catalog.build(topology, seed=0)
    case_set = generate_cases(topo, random.Random(5), n_cases, 0)
    runner = EvaluationRunner(
        topo, routing=case_set.routing, approaches=("RTR", "Detour")
    )
    records = runner.run(case_set)
    rows = []
    for name, recs in records.items():
        summary = summarize_recoverable([r for r in recs if r.case.recoverable])
        rows.append({"approach": name, **summary.as_dict()})
    print(f"registered scheme 'Detour' vs RTR on {topology} ({n_cases} cases)")
    print(format_table(rows))


if __name__ == "__main__":
    main(
        sys.argv[1] if len(sys.argv) > 1 else "AS209",
        int(sys.argv[2]) if len(sys.argv) > 2 else 40,
    )
