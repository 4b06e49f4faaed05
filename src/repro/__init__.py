"""repro — a full reimplementation of RTR (Reactive Two-phase Rerouting).

Reproduction of *"Optimal Recovery from Large-Scale Failures in IP
Networks"* (Zheng, Cao, La Porta, Swami — ICDCS 2012), including every
substrate the paper depends on: embedded ISP topologies, link-state
routing with incremental SPT recomputation, geometric failure areas with
local-only detection, a packet-level simulator, the FCP and MRC baselines,
and an evaluation harness regenerating every table and figure of §IV.

Quickstart::

    import random
    from repro import FailureScenario, RTR, isp_catalog, random_circle

    topo = isp_catalog.build("AS1239", seed=1)
    scenario = FailureScenario.from_region(
        topo, random_circle(random.Random(7))
    )
    rtr = RTR(topo, scenario)
    # pick any failed default path and recover it:
    # result = rtr.recover_flow(source, destination)
"""

from .errors import (
    ChaosError,
    EvaluationError,
    ForwardingLoopError,
    NoPathError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
)
from .geometry import (
    Circle,
    FailureRegion,
    Point,
    Polygon,
    Segment,
    UnionRegion,
)
from .topology import (
    Link,
    Topology,
    geometric_isp,
    grid_topology,
    isp_catalog,
)
from .routing import (
    ConvergenceConfig,
    LinkStateProtocol,
    Path,
    RoutingTable,
    ShortestPathTree,
    shortest_path,
    shortest_path_or_none,
    shortest_path_tree,
    updated_tree,
)
from .failures import (
    FailureScenario,
    LocalView,
    circle_scenarios,
    multi_area_scenario,
    random_circle,
)
from .simulator import (
    ForwardingEngine,
    Packet,
    RecoveryAccounting,
    RecoveryHeader,
    RecoveryResult,
)
from .chaos import DegradedLocalView, FaultPlan, SecondaryFailure
from .core import MultiAreaRTR, RTR, RTRConfig
from .schemes.fcp import FCP
from .schemes.mrc import MRC
from .schemes.oracle import Oracle

__version__ = "1.0.0"

__all__ = [
    "ChaosError",
    "EvaluationError",
    "ForwardingLoopError",
    "NoPathError",
    "ReproError",
    "RoutingError",
    "SimulationError",
    "TopologyError",
    "Circle",
    "FailureRegion",
    "Point",
    "Polygon",
    "Segment",
    "UnionRegion",
    "Link",
    "Topology",
    "geometric_isp",
    "grid_topology",
    "isp_catalog",
    "ConvergenceConfig",
    "LinkStateProtocol",
    "Path",
    "RoutingTable",
    "ShortestPathTree",
    "shortest_path",
    "shortest_path_or_none",
    "shortest_path_tree",
    "updated_tree",
    "FailureScenario",
    "LocalView",
    "circle_scenarios",
    "multi_area_scenario",
    "random_circle",
    "ForwardingEngine",
    "Packet",
    "RecoveryAccounting",
    "RecoveryHeader",
    "RecoveryResult",
    "DegradedLocalView",
    "FaultPlan",
    "SecondaryFailure",
    "RTR",
    "MultiAreaRTR",
    "RTRConfig",
    "FCP",
    "MRC",
    "Oracle",
    "__version__",
]
