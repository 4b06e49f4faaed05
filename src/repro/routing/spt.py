"""Shortest-path trees.

A :class:`ShortestPathTree` stores, for one root, the distance and parent
pointer of every reachable node.  Two orientations exist:

* **forward** (``toward_root=False``): distances are root -> node, parents
  point back toward the root.  Produced by Dijkstra from a source.
* **reverse** (``toward_root=True``): distances are node -> root, and the
  parent of ``v`` is ``v``'s *next hop toward the root*.  This is what a
  routing table needs — hop-by-hop forwarding toward a destination — and
  it handles asymmetric link costs correctly (§II-A allows
  ``c_ij != c_ji``).

Two storages sit behind one interface.  The reference kernels build the
``dist`` / ``parent`` dicts directly.  The numpy kernels build an *array
tree* (:meth:`ShortestPathTree.from_arrays`): the CSR view, a dense
distance array (``inf`` = unreached) and a dense parent-index array
(``-1`` = none).  Point queries — :meth:`reaches`, :meth:`cost_to`,
:meth:`distance`, :meth:`next_hop`, :meth:`path_from` — answer from the
arrays.  The first read of ``.dist`` or ``.parent`` builds exactly the
dicts the reference kernel returns (same values, ascending-id insertion
order), keeps them and drops the arrays, so every later read or in-place
edit sees one source of truth.  At 20k nodes building the two dicts costs
more than the kernel that produced the arrays, and most trees (FCP,
Oracle, RTR phase 2) are only ever asked point queries.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from .. import obs
from ..errors import NoPathError
from .paths import Path

_INF = float("inf")


class ShortestPathTree:
    """Distances and parent pointers from/to a single root."""

    __slots__ = ("root", "toward_root", "_dist", "_parent", "_arrays")

    def __init__(
        self,
        root: int,
        dist: Dict[int, float],
        parent: Dict[int, Optional[int]],
        toward_root: bool,
    ) -> None:
        self.root = root
        self.toward_root = toward_root
        self._dist = dist
        self._parent = parent
        #: ``(csr, dist array, parent array)`` until the dicts are built.
        self._arrays: Optional[tuple] = None

    @classmethod
    def from_arrays(
        cls, csr, root: int, dist, parent, toward_root: bool
    ) -> "ShortestPathTree":
        """An array tree over ``csr`` (``dist``/``parent`` by dense index).

        The arrays are frozen read-only: copies of the tree share them.
        """
        dist.flags.writeable = False
        parent.flags.writeable = False
        tree = cls(root, None, None, toward_root)  # type: ignore[arg-type]
        tree._arrays = (csr, dist, parent)
        return tree

    @property
    def dist(self) -> Dict[int, float]:
        """Distance of every reachable node, in ascending-id order."""
        if self._arrays is not None:
            self._materialize()
        return self._dist

    @property
    def parent(self) -> Dict[int, Optional[int]]:
        """Parent (reverse trees: next hop) of every reachable node."""
        if self._arrays is not None:
            self._materialize()
        return self._parent

    def _materialize(self) -> None:
        import numpy as np  # here: array trees exist only where numpy does

        csr, dist, parent = self._arrays
        # Keys and parents index ``csr.ids``, so every tree shares its int
        # objects; mapping ids in numpy would allocate 2 x n new ones.
        ids = csr.ids
        reach = np.flatnonzero(np.isfinite(dist))
        keys = [ids[i] for i in reach.tolist()]
        self._dist = dict(zip(keys, dist[reach].tolist()))
        self._parent = {
            k: (ids[p] if p >= 0 else None)
            for k, p in zip(keys, parent[reach].tolist())
        }
        self._arrays = None
        if obs.enabled():
            obs.inc("spt.materialized")

    def _index(self, node: int) -> Optional[int]:
        """Dense index of ``node`` when the array tree reaches it."""
        csr, dist, _ = self._arrays
        i = csr.pos.get(node)
        if i is None or dist.item(i) == _INF:
            return None
        return i

    def _no_path(self, node: int) -> NoPathError:
        if self.toward_root:
            return NoPathError(node, self.root)
        return NoPathError(self.root, node)

    def reaches(self, node: int) -> bool:
        """Whether ``node`` is connected to the root."""
        if self._arrays is None:
            return node in self._dist
        return self._index(node) is not None

    def cost_to(self, node: int) -> Optional[float]:
        """Shortest-path cost between the root and ``node``, or ``None``."""
        if self._arrays is None:
            return self._dist.get(node)
        i = self._index(node)
        return None if i is None else self._arrays[1].item(i)

    def distance(self, node: int) -> float:
        """Shortest-path cost between the root and ``node``."""
        cost = self.cost_to(node)
        if cost is None:
            raise self._no_path(node)
        return cost

    def next_hop(self, node: int) -> Optional[int]:
        """Next hop from ``node`` toward the root (reverse trees only)."""
        assert self.toward_root, "next_hop() is defined on reverse trees"
        if self._arrays is None:
            return self._parent.get(node)
        i = self._index(node)
        if i is None:
            return None
        p = self._arrays[2].item(i)
        return self._arrays[0].ids[p] if p >= 0 else None

    def path_from(self, node: int) -> Path:
        """Path ``node -> root`` (reverse tree) or ``root -> node`` (forward).

        Reverse trees chain next hops from ``node`` to the root; forward
        trees chain parents from ``node`` back to the root and then flip.
        """
        if self._arrays is None:
            if node not in self._dist:
                raise self._no_path(node)
            chain = [node]
            current = node
            parent = self._parent
            while current != self.root:
                current = parent[current]  # type: ignore[assignment]
                chain.append(current)
            cost = self._dist[node]
        else:
            i = self._index(node)
            if i is None:
                raise self._no_path(node)
            csr, dist, parent_arr = self._arrays
            ids = csr.ids
            root_index = csr.pos[self.root]
            chain = [node]
            j = i
            while j != root_index:
                j = parent_arr.item(j)
                chain.append(ids[j])
            cost = dist.item(i)
        if self.toward_root:
            return Path(tuple(chain), cost)
        return Path(tuple(reversed(chain)), cost)

    def reachable_nodes(self) -> Iterator[int]:
        """Every node connected to the root (including the root)."""
        return iter(self.dist)

    def tree_links(self) -> Iterator[Tuple[int, int]]:
        """The ``(child, parent)`` pairs forming the tree."""
        return (
            (node, parent)
            for node, parent in self.parent.items()
            if parent is not None
        )

    def copy(self) -> "ShortestPathTree":
        """An independent copy (incremental updates mutate in place)."""
        if self._arrays is not None:
            csr, dist, parent = self._arrays  # read-only: sharing is safe
            return ShortestPathTree.from_arrays(
                csr, self.root, dist, parent, self.toward_root
            )
        return ShortestPathTree(
            self.root, dict(self._dist), dict(self._parent), self.toward_root
        )
