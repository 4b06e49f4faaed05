"""Test-only reference for ``FailureScenario.from_region`` — the executable spec.

This is the algorithm :meth:`repro.failures.FailureScenario.from_region`
ran before it asked a spatial grid for candidates, kept verbatim: **every
router and every link is tested**, in ``topo.nodes()`` and link-index
order.  It uses no index, so it cannot miss a candidate;
``test_region_parity.py`` requires the production scenarios to equal
these in ``failed_nodes``, ``failed_links`` and the iteration order of
``failed_links``.
"""

from __future__ import annotations

from repro.failures import FailureScenario
from repro.geometry import FailureRegion
from repro.topology import Topology


def reference_from_region(topo: Topology, region: FailureRegion) -> FailureScenario:
    """The scenario a full scan of ``topo`` against ``region`` yields."""
    failed_nodes = {n for n in topo.nodes() if region.contains(topo.position(n))}
    cut_links = {
        link for link in topo.links() if region.crosses(topo.segment(link))
    }
    return FailureScenario(topo, failed_nodes, cut_links, region=region)
