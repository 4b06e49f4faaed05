"""Test-only reference ``edge_loads_to`` — the executable spec of the sweep.

This is the body :meth:`repro.routing.RoutingTable.edge_loads_to` had
before it sorted the flow-carrying nodes once, kept verbatim: a
max-distance heap pops ``(-distance, node)``, every tree edge is named
by a freshly built ``Link.of`` and distances / next hops go through the
tree's accessor methods.  The heap's pop order *is* the specification
of the float accumulation order — ``test_edge_loads_parity.py`` requires
the library's dict to equal this one ``float.hex`` for ``float.hex``,
keys in the same order.
"""

from __future__ import annotations

import heapq
from typing import Dict, Mapping

from repro.routing import RoutingTable
from repro.topology import Link


def reference_edge_loads_to(
    routing: RoutingTable, destination: int, demands: Mapping[int, float]
) -> Dict[Link, float]:
    """Per-link demand flowing toward ``destination`` (heap sweep)."""
    tree = routing.tree_to(destination)
    carry: Dict[int, float] = {}
    for source, demand in demands.items():
        if source == destination or demand <= 0.0 or not tree.reaches(source):
            continue
        carry[source] = carry.get(source, 0.0) + demand
    loads: Dict[Link, float] = {}
    # Only nodes that carry flow matter, and distance strictly
    # decreases along every next hop, so a max-distance heap visits
    # exactly the flow-carrying nodes in the same (distance desc,
    # id asc) order a full-tree sweep would — identical float
    # accumulation order at a fraction of the work when demand
    # touches few of the tree's nodes (sampled matrices at scale).
    heap = [(-tree.cost_to(node), node) for node in carry]
    heapq.heapify(heap)
    queued = {node for _, node in heap}
    while heap:
        _, node = heapq.heappop(heap)
        flow = carry.get(node, 0.0)
        if flow <= 0.0:
            continue
        nxt = tree.next_hop(node)
        if nxt is None:
            continue
        link = Link.of(node, nxt)
        loads[link] = loads.get(link, 0.0) + flow
        if nxt != destination:
            carry[nxt] = carry.get(nxt, 0.0) + flow
            if nxt not in queued:
                queued.add(nxt)
                heapq.heappush(heap, (-tree.cost_to(nxt), nxt))
    return loads
