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

One storage sits behind the interface: the kernel's own dense sequences
over the CSR view's node indices — ``dense_dist`` (``inf`` = unreached)
and ``dense_parent`` (a node index, ``-1`` = none).  The pure-Python
kernels hand over their lists; the numpy kernels hand over their arrays'
``.data`` memoryviews (:meth:`ShortestPathTree.from_arrays`), which index
to Python floats and ints just as the lists do, so one query path serves
both.  Point queries — :meth:`reaches`, :meth:`cost_to`, :meth:`distance`,
:meth:`next_hop`, :meth:`path_from` — read that storage, and so do the
traffic layer's whole-tree passes (``csr.pos`` / ``csr.ids`` translate).
The first read of ``.dist`` or ``.parent`` builds both dicts (reached
nodes in ascending-id order) and keeps them beside it; the storage is
never mutated, so trees may share it and the dicts agree with it for
good.  Building the dicts costs more than the kernel that filled the
storage, and no sweep the repo runs needs them.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Optional, Sequence, Tuple

from .. import obs
from ..errors import NoPathError
from .paths import Path

_INF = float("inf")


class ShortestPathTree:
    """Distances and parent pointers from/to a single root."""

    __slots__ = ("csr", "root", "toward_root", "dense_dist", "dense_parent", "_maps")

    def __init__(
        self,
        csr,
        root: int,
        dist: Sequence[float],
        parent: Sequence[int],
        toward_root: bool,
    ) -> None:
        self.csr = csr
        self.root = root
        self.toward_root = toward_root
        #: Dense index -> distance (``inf`` = unreached); never mutated.
        self.dense_dist = dist
        #: Dense index -> parent index (``-1`` = none); never mutated.
        self.dense_parent = parent
        #: ``(dist dict, parent dict)`` once ``.dist`` / ``.parent`` is read.
        self._maps: Optional[Tuple[Dict[int, float], Dict[int, Optional[int]]]] = None

    @classmethod
    def from_arrays(
        cls, csr, root: int, dist, parent, toward_root: bool
    ) -> "ShortestPathTree":
        """The tree of numpy ``dist`` / ``parent`` arrays over ``csr``.

        The kernels pass float64 distances and int32 parents, 12 bytes a
        node.  The arrays are frozen read-only and the tree reads them
        through their memoryviews, which index to Python floats and ints,
        so copies of the tree share them.
        """
        dist.flags.writeable = False
        parent.flags.writeable = False
        return cls(csr, root, dist.data, parent.data, toward_root)

    @property
    def dist(self) -> Dict[int, float]:
        """Distance of every reachable node, in ascending-id order."""
        return (self._maps or self._materialize())[0]

    @property
    def parent(self) -> Dict[int, Optional[int]]:
        """Parent (reverse trees: next hop) of every reachable node."""
        return (self._maps or self._materialize())[1]

    def _materialize(self) -> Tuple[Dict[int, float], Dict[int, Optional[int]]]:
        # Keys and parents index ``ids``, so every tree shares its int
        # objects; ``-1`` (no parent) indexes the appended ``None``.
        ids = self.csr.ids
        parent_of = [*ids, None].__getitem__
        keys, dist, parent = ids, self.dense_dist, self.dense_parent
        if _INF in dist:
            reached = list(map(_INF.__ne__, dist))
            keys = list(compress(ids, reached))
            dist, parent = compress(dist, reached), compress(parent, reached)
        self._maps = (
            dict(zip(keys, dist)),
            dict(zip(keys, map(parent_of, parent))),
        )
        if obs.enabled():
            obs.inc("spt.materialized")
        return self._maps

    def _index(self, node: int) -> Optional[int]:
        """Dense index of ``node`` when the tree reaches it."""
        i = self.csr.pos.get(node)
        if i is None or self.dense_dist[i] == _INF:
            return None
        return i

    def _no_path(self, node: int) -> NoPathError:
        if self.toward_root:
            return NoPathError(node, self.root)
        return NoPathError(self.root, node)

    def reaches(self, node: int) -> bool:
        """Whether ``node`` is connected to the root."""
        return self._index(node) is not None

    def cost_to(self, node: int) -> Optional[float]:
        """Shortest-path cost between the root and ``node``, or ``None``."""
        i = self._index(node)
        return None if i is None else self.dense_dist[i]

    def next_hop(self, node: int) -> Optional[int]:
        """Next hop from ``node`` toward the root (reverse trees only)."""
        assert self.toward_root, "next_hop() is defined on reverse trees"
        i = self._index(node)
        if i is None:
            return None
        p = self.dense_parent[i]
        return self.csr.ids[p] if p >= 0 else None

    def path_from(self, node: int) -> Path:
        """Path ``node -> root`` (reverse tree) or ``root -> node`` (forward).

        Reverse trees chain next hops from ``node`` to the root; forward
        trees chain parents from ``node`` back to the root and then flip.
        """
        i = self._index(node)
        if i is None:
            raise self._no_path(node)
        csr = self.csr
        ids = csr.ids
        parent = self.dense_parent
        root_index = csr.pos[self.root]
        chain = [node]
        j = i
        while j != root_index:
            j = parent[j]
            chain.append(ids[j])
        if self.toward_root:
            return Path(tuple(chain), self.dense_dist[i])
        return Path(tuple(reversed(chain)), self.dense_dist[i])

    def copy(self) -> "ShortestPathTree":
        """An independent copy: it shares the read-only storage, and builds
        its own dicts if they are read."""
        return ShortestPathTree(
            self.csr, self.root, self.dense_dist, self.dense_parent, self.toward_root
        )
