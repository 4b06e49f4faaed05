"""MRC — Multiple Routing Configurations (Kvalbein et al., INFOCOM 2006).

The proactive baseline of §IV-A.  MRC precomputes a small set of *backup
configurations*; in configuration ``c`` a subset of nodes is **isolated**:
all their links carry infinite weight except one *restricted* link that
keeps them attached, so no transit traffic crosses an isolated node.  Every
node (and thereby every link) is isolated in at least one configuration.

On a failure, the detecting router switches the packet into a
configuration where the failed next hop is isolated and forwards on that
configuration's shortest paths; the packet is marked and may switch only
once, so MRC handles any *single* failure.  Under large-scale failures a
path and its backup configurations fail together — which is exactly why
the paper reports low MRC recovery rates (Table III).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from .. import obs
from ..chaos import FaultPlan, forwarding_world
from ..errors import SimulationError, UnknownNodeError
from ..failures import FailureScenario, find_initiator
from ..routing import Path, RoutingTable
from ..simulator import (
    DEFAULT_PAYLOAD_BYTES,
    Packet,
    RecoveryAccounting,
    RecoveryResult,
    TableWalkSpec,
    WalkPlan,
    run_plan,
    table_walk_hop_budget,
)
from ..topology import Link, Topology
from .base import RecoveryScheme, SchemeInstance
from .registry import register_scheme

#: Weight of a restricted link: traffic uses it only to enter/leave the
#: isolated node itself, never in transit.
RESTRICTED_WEIGHT = 100_000.0


class BackupConfiguration:
    """One backup configuration: isolated nodes and link weights."""

    def __init__(
        self,
        topo: Topology,
        index: int,
        isolated_nodes: Set[int],
        restricted_links: Set[Link],
    ) -> None:
        self.topo = topo
        self.index = index
        self.isolated_nodes = isolated_nodes
        self.restricted_links = restricted_links
        # Isolated links: every link of an isolated node except its
        # restricted attachment(s).
        isolated: Set[Link] = set()
        for node in isolated_nodes:
            for link in topo.incident_links(node):
                if link not in restricted_links:
                    isolated.add(link)
        self.isolated_links = isolated
        self._trees: Dict[int, object] = {}
        self._weight_cache: Optional[Tuple[int, List[float]]] = None

    def _csr_weights(self, csr) -> List[float]:
        """Per-link-id config weights for the CSR kernel (-1 = unusable)."""
        cached = self._weight_cache
        if cached is not None and cached[0] == csr.version:
            return cached[1]
        weights = [-1.0] * csr.lid_size
        for link in self.topo.links():
            w = self.link_weight(link)
            weights[self.topo.link_index(link)] = -1.0 if w is None else w
        self._weight_cache = (csr.version, weights)
        return weights

    def link_weight(self, link: Link) -> Optional[float]:
        """Config weight of ``link``: None means unusable (isolated)."""
        if link in self.isolated_links:
            return None
        if link in self.restricted_links:
            return RESTRICTED_WEIGHT
        return self.topo.cost(link.u, link.v)

    def tree(self, destination: int) -> Dict[int, int]:
        """The (cached) next-hop map toward ``destination``.

        This is the table the walk plane consumes directly: a
        :class:`~repro.simulator.TableWalkSpec` over it is equivalent to
        per-hop :meth:`next_hop` calls, because the table-walk semantics
        check the destination *before* the lookup.
        """
        tree = self._trees.get(destination)
        if tree is None:
            tree = _weighted_reverse_tree(self.topo, destination, self)
            self._trees[destination] = tree
        return tree

    def next_hop(self, node: int, destination: int) -> Optional[int]:
        """Next hop of ``node`` toward ``destination`` in this configuration."""
        tree = self.tree(destination)
        if node == destination or node not in tree:
            return None
        return tree[node]


def _weighted_reverse_tree(
    topo: Topology, destination: int, config: BackupConfiguration
) -> Dict[int, int]:
    """Next-hop map toward ``destination`` under the config's weights.

    Runs on the CSR view with a per-config weight array over interned link
    ids (cached on the configuration); node-index comparisons equal id
    comparisons, so the smaller-next-hop tie-break is unchanged.
    """
    if not obs.enabled():
        return _weighted_reverse_tree_kernel(topo, destination, config)
    with obs.span("mrc.weighted_tree"):
        obs.inc("mrc.weighted_tree_runs")
        return _weighted_reverse_tree_kernel(topo, destination, config)


def _weighted_reverse_tree_kernel(
    topo: Topology, destination: int, config: BackupConfiguration
) -> Dict[int, int]:
    import heapq

    csr = topo.csr()
    root = csr.pos.get(destination)
    if root is None:
        raise UnknownNodeError(destination)
    weights = config._csr_weights(csr)
    isolated = csr.node_flags(config.isolated_nodes)
    arcs, ids = csr.arcs, csr.ids

    inf = float("inf")
    n = csr.n
    dist = [inf] * n
    next_hop = [-1] * n
    settled = bytearray(n)
    dist[root] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, root)]
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        # Transit never crosses an isolated node: an isolated node may be
        # the destination or the source, not an intermediate hop.
        if isolated[u] and u != root:
            continue
        for v, l, _, _ in arcs[u]:
            if settled[v]:
                continue
            weight = weights[l]
            if weight < 0.0:
                continue
            candidate = d + weight
            known = dist[v]
            if candidate < known - 1e-9:
                dist[v] = candidate
                next_hop[v] = u
                heapq.heappush(heap, (candidate, v))
            elif known != inf and abs(candidate - known) <= 1e-9 and u < next_hop[v]:
                next_hop[v] = u
    return {ids[v]: ids[next_hop[v]] for v in range(n) if next_hop[v] >= 0}


def generate_configurations(
    topo: Topology, n_configs: int = 4, seed: int = 0, max_attempts: int = 6
) -> List[BackupConfiguration]:
    """Generate backup configurations isolating as many nodes as possible.

    Greedy variant of Kvalbein's algorithm: nodes are assigned round-robin
    to configurations; a node joins a configuration only if isolating it
    (keeping one restricted attachment) leaves that configuration's
    backbone — the graph without isolated links — connected.  If some node
    cannot be placed, the configuration count grows and generation retries,
    as the original paper does.

    Full coverage requires a biconnected topology (Kvalbein's assumption):
    an articulation point disconnects every backbone it leaves, so it can
    never be isolated.  Real ISP topologies (and the Table II catalog) have
    cut vertices and leaves, so this generator keeps the best attempt and
    leaves such nodes *unprotected* — failures of unprotected elements are
    simply unrecoverable for MRC, one reason its recovery rate collapses
    under large-scale failures (Table III).
    """
    with obs.span("mrc.generate_configurations"):
        return _generate_configurations(topo, n_configs, seed, max_attempts)


def _generate_configurations(
    topo: Topology, n_configs: int, seed: int, max_attempts: int
) -> List[BackupConfiguration]:
    rng = random.Random(seed)
    best: Optional[List[BackupConfiguration]] = None
    best_unprotected = None
    for attempt in range(max_attempts):
        count = n_configs + attempt
        configs = _try_generate(topo, count, rng)
        uncovered = len(unprotected_nodes(topo, configs))
        if best_unprotected is None or uncovered < best_unprotected:
            best, best_unprotected = configs, uncovered
        if uncovered == 0:
            break
    assert best is not None
    return best


def unprotected_nodes(
    topo: Topology, configurations: List[BackupConfiguration]
) -> Set[int]:
    """Nodes not isolated in any configuration (MRC cannot protect them)."""
    covered: Set[int] = set()
    for config in configurations:
        covered |= config.isolated_nodes
    return {n for n in topo.nodes() if n not in covered}


def _backbone_connected(
    topo: Topology, isolated_nodes: Set[int], restricted: Set[Link]
) -> bool:
    """Whether non-isolated nodes stay mutually reachable and isolated
    nodes keep a restricted attachment to the backbone."""
    csr = topo.csr()
    # Isolated nodes start out seen, so the traversal stays on the backbone.
    seen = csr.node_flags(isolated_nodes)
    start = seen.find(0)
    if start < 0:
        return False
    seen[start] = 1
    queue = [start]
    arcs = csr.arcs
    for u in queue:  # grows while it is read: a breadth-first sweep
        for v, _, _, _ in arcs[u]:
            if not seen[v]:
                seen[v] = 1
                queue.append(v)
    if 0 in seen:  # a backbone node the traversal never reached
        return False
    # Every isolated node needs a restricted link to a backbone node.
    for node in isolated_nodes:
        if not any(
            link in restricted and link.other(node) not in isolated_nodes
            for link in topo.incident_links(node)
        ):
            return False
    return True


def _try_generate(
    topo: Topology, count: int, rng: random.Random
) -> List[BackupConfiguration]:
    """One greedy generation pass; unplaceable nodes stay unprotected."""
    nodes = list(topo.nodes())
    rng.shuffle(nodes)
    isolated_in: List[Set[int]] = [set() for _ in range(count)]
    restricted_in: List[Set[Link]] = [set() for _ in range(count)]

    for i, node in enumerate(nodes):
        for offset in range(count):
            c = (i + offset) % count
            candidate_isolated = isolated_in[c] | {node}
            # Choose a restricted attachment to a non-isolated neighbor.
            # The check's answer does not depend on which one: the new
            # link attaches only ``node``, and attaches it to the backbone.
            attach = next(
                (nb for nb in topo.neighbors(node) if nb not in candidate_isolated),
                None,
            )
            if attach is None:
                continue
            candidate_restricted = restricted_in[c] | {Link.of(node, attach)}
            if _backbone_connected(topo, candidate_isolated, candidate_restricted):
                isolated_in[c] = candidate_isolated
                restricted_in[c] = candidate_restricted
                break
    return [
        BackupConfiguration(topo, c, isolated_in[c], restricted_in[c])
        for c in range(count)
    ]


class MRC:
    """MRC forwarding over one failure scenario."""

    def __init__(
        self,
        topo: Topology,
        scenario: FailureScenario,
        configurations: Optional[List[BackupConfiguration]] = None,
        routing: Optional[RoutingTable] = None,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.topo = topo
        self.scenario = scenario
        self.routing = routing if routing is not None else RoutingTable(topo)
        self.configurations = (
            configurations
            if configurations is not None
            else generate_configurations(topo, seed=seed)
        )
        self.view, self.engine = forwarding_world(topo, scenario, fault_plan)

    def _config_isolating(self, node: int) -> Optional[BackupConfiguration]:
        for config in self.configurations:
            if node in config.isolated_nodes:
                return config
        return None

    def _config_isolating_link(self, link: Link) -> Optional[BackupConfiguration]:
        for config in self.configurations:
            if link in config.isolated_links:
                return config
        return None

    def recover(
        self,
        initiator: int,
        destination: int,
        trigger_neighbor: Optional[int] = None,
    ) -> RecoveryResult:
        """Forward one packet with at most one configuration switch."""
        return run_plan(
            self.engine, self.plan_recovery(initiator, destination, trigger_neighbor)
        )

    def plan_recovery(
        self,
        initiator: int,
        destination: int,
        trigger_neighbor: Optional[int] = None,
    ) -> WalkPlan:
        """Compile one MRC case into a table-walk :class:`WalkPlan`."""
        if not self.scenario.is_node_live(initiator):
            raise SimulationError(f"recovery initiator {initiator} has failed")
        if trigger_neighbor is None:
            trigger_neighbor = self.routing.next_hop(initiator, destination)
            if trigger_neighbor is None:
                raise SimulationError(
                    f"{initiator} has no pre-failure route toward {destination}"
                )

        accounting = RecoveryAccounting()
        packet = Packet(source=initiator, destination=destination)

        # Pick the backup configuration for the failed element: the one
        # isolating the failed next-hop node — or, when the next hop is the
        # destination itself, the one isolating the failed link.
        if trigger_neighbor == destination:
            config = self._config_isolating_link(Link.of(initiator, trigger_neighbor))
            if config is None:
                config = self._config_isolating(trigger_neighbor)
        else:
            config = self._config_isolating(trigger_neighbor)
        if config is None:
            return WalkPlan(immediate=self._dropped(accounting, [initiator]))

        # Degenerate delivered-on-the-spot case: skip building the tree
        # (the historical loop never built it either).
        table = {} if initiator == destination else config.tree(destination)
        spec = TableWalkSpec(
            next_hops=table,
            destination=destination,
            budget=table_walk_hop_budget(self.topo.node_count),
        )

        def finish(outcome) -> RecoveryResult:
            if outcome.reached:
                return RecoveryResult(
                    approach=MRCScheme.name,
                    delivered=True,
                    path=Path(
                        tuple(outcome.visited), float(len(outcome.visited) - 1)
                    ),
                    accounting=accounting,
                )
            # Stuck, blocked (second failure on the backup configuration:
            # MRC gives up — packets may switch configurations only once),
            # or out of budget: all drop.
            return self._dropped(accounting, outcome.visited)

        return WalkPlan(
            spec=spec, packet=packet, accounting=accounting, finish=finish
        )

    def recover_flow(self, source: int, destination: int) -> RecoveryResult:
        """Recover the failed default path, like :meth:`RTR.recover_flow`."""
        initiator, trigger = find_initiator(
            self.view, self.routing, source, destination
        )
        return self.recover(initiator, destination, trigger)

    def _dropped(
        self, accounting: RecoveryAccounting, traveled: List[int]
    ) -> RecoveryResult:
        return RecoveryResult(
            approach=MRCScheme.name,
            delivered=False,
            path=None,
            accounting=accounting,
            drop_hops=accounting.hops_traveled,
            drop_packet_bytes=DEFAULT_PAYLOAD_BYTES,
        )


@register_scheme
class MRCScheme(RecoveryScheme):
    """Multiple Routing Configurations: precomputed backup configurations."""

    name = "MRC"

    def __init__(self, mrc_seed: int = 0, **options: object) -> None:
        super().__init__(**options)
        self.mrc_seed = mrc_seed
        self._configs: Optional[List[BackupConfiguration]] = None

    def _configurations(self) -> List[BackupConfiguration]:
        # Lazy, not in _prepare(): configuration generation is the
        # expensive per-topology step, and shards that never instantiate
        # (empty case subsets) must not pay for it — serial and parallel
        # sweeps would otherwise diverge in obs spans and wall time.
        if self._configs is None:
            self._configs = generate_configurations(self.topo, seed=self.mrc_seed)
        return self._configs

    def _instantiate(self, scenario: FailureScenario, penalty: object) -> SchemeInstance:
        return SchemeInstance(
            self.name,
            MRC(
                self.topo,
                scenario,
                configurations=self._configurations(),
                routing=self.routing,
                fault_plan=self.fault_plan,
            ),
        )
