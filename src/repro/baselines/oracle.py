"""Oracle recovery: ground-truth shortest paths in ``G - E2``.

Not a deployable protocol — the oracle sees the exact failure set, which no
router has during IGP convergence (§I).  It defines:

* **recoverability**: a failed routing path is recoverable iff the oracle
  finds any path (§IV-A case 2 vs case 3),
* **optimality**: the denominator of the stretch metric (§IV-C) and the
  reference for the *optimal recovery rate*.

Theorem 2 says RTR's recovered paths always match the oracle's length;
tests and the Table III benchmark check exactly that.
"""

from __future__ import annotations

from typing import Optional

from ..failures import FailureScenario
from ..routing import Path, ShortestPathTree, SPTCache
from ..topology import Topology
from ..topology.csr import Exclusion

APPROACH_NAME = "Oracle"


class Oracle:
    """Ground-truth shortest-path recovery for one failure scenario.

    Every answer about one initiator is read from one forward tree of
    ``G - E2`` (:meth:`tree_from`), fetched through an
    :class:`~repro.routing.SPTCache` (a private one unless a shared cache
    is passed in) — classifying all its destinations costs one cache probe
    and at most one Dijkstra; only :meth:`recovery_path` builds a path.
    """

    def __init__(
        self,
        topo: Topology,
        scenario: FailureScenario,
        cache: Optional[SPTCache] = None,
    ) -> None:
        self.topo = topo
        self.scenario = scenario
        self.cache = cache if cache is not None else SPTCache()
        # The last initiator's tree and the exclusion it was fetched with.
        self._tree: Optional[ShortestPathTree] = None
        self._fetched_with: Optional[Exclusion] = None

    def tree_from(self, initiator: int) -> ShortestPathTree:
        """Forward tree of ``G - E2`` from ``initiator`` (shared, read-only).

        ``tree.dist`` is the optimal cost of every recoverable destination.
        Consecutive queries about one initiator reuse it without a cache
        probe; a topology mutation (a new prepared exclusion) fetches again.
        """
        exclusion = self.scenario.exclusion()
        tree = self._tree
        stale = exclusion is not self._fetched_with
        if tree is None or tree.root != initiator or stale:
            tree = self.cache.forward_tree(self.topo, initiator, exclusion=exclusion)
            self._tree, self._fetched_with = tree, exclusion
        return tree

    def optimal_cost(self, initiator: int, destination: int) -> Optional[float]:
        """Cost of the optimal recovery path, or ``None`` if irrecoverable."""
        failed = self.scenario.failed_nodes
        if destination in failed or initiator in failed:
            return None
        return self.tree_from(initiator).dist.get(destination)

    def is_recoverable(self, initiator: int, destination: int) -> bool:
        """Whether any live path exists (§IV-A's case 2)."""
        return self.optimal_cost(initiator, destination) is not None

    def recovery_path(self, initiator: int, destination: int) -> Optional[Path]:
        """The true shortest initiator -> destination path in ``G - E2``."""
        if self.optimal_cost(initiator, destination) is None:
            return None
        return self.tree_from(initiator).path_from(destination)
