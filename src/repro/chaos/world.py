"""The forwarding world a walking protocol runs in.

Every scheme that walks packets (RTR, FCP, MRC, r3) builds its
``(view, engine)`` pair with :func:`forwarding_world` in its own
constructor, from the same ``fault_plan`` argument.  One plan therefore
perturbs every scheme through the same detection faults, secondary
flaps, loss streams and hop clock, and a scheme that accepts a plan
cannot lose it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..failures import FailureScenario, LocalView
from ..simulator import ForwardingEngine
from ..topology import Topology
from .degraded import DegradedLocalView
from .engine import ChaosForwardingEngine
from .plan import FaultPlan
from .runtime import ChaosRuntime


def forwarding_world(
    topo: Topology,
    scenario: FailureScenario,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[LocalView, ForwardingEngine]:
    """The ``(view, engine)`` pair of one convergence window.

    Without a plan (``None`` or :meth:`FaultPlan.is_null`) this is the
    idealized §II-A world: a :class:`LocalView` and a plain
    :class:`ForwardingEngine`.  Otherwise it is a
    :class:`DegradedLocalView` and a :class:`ChaosForwardingEngine`
    sharing one :class:`ChaosRuntime` (``engine.runtime``), so all
    injectors observe one timeline.
    """
    if fault_plan is None or fault_plan.is_null():
        view = LocalView(scenario)
        return view, ForwardingEngine(topo, view)
    runtime = ChaosRuntime(fault_plan, scenario)
    degraded = DegradedLocalView(scenario, fault_plan, runtime)
    return degraded, ChaosForwardingEngine(topo, degraded, runtime)
