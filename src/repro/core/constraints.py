"""The cross-link constraints of §III-C.

On a general (non-planar) graph the bare sweeping rule can fail to enclose
the failure area (Fig. 4) or traverse links in both directions needlessly
(Fig. 5).  The paper fixes both with two constraints on the forwarding
path:

* **Constraint 1** — the path must not cross the links between the
  recovery initiator and its unreachable neighbors;
* **Constraint 2** — the path must not contain cross links.

Both are enforced through the ``cross_link`` header field: a candidate link
that crosses *any* link recorded in ``cross_link`` is excluded from
selection.  :class:`CrossLinkState` wraps that field plus the two update
rules:

* the initiator seeds ``cross_link`` with each of its unreachable-neighbor
  links that crosses other links (Constraint 1's enforcement),
* after selecting link ``e_{j,m}``, if some link crosses ``e_{j,m}`` but is
  not already excluded, ``e_{j,m}`` itself is recorded (Constraint 2's
  enforcement).
"""

from __future__ import annotations

from typing import List

from ..failures import LocalView
from ..simulator import RecoveryHeader
from ..topology import Link, Topology
from ..topology.csr import cross_rows


class CrossLinkState:
    """The ``cross_link`` header field and its exclusion semantics.

    Links are named by id (``topo.csr().pair_lid``).  Two 0/1 flag arrays
    over the ids shadow the header: ``recorded`` (in ``cross_link``) and
    ``barred`` (crosses a recorded link).  Crossing is symmetric, so
    "candidate crosses some recorded link" is exactly "candidate is in the
    union of the recorded links' crossing rows"; keeping that union as
    flags makes an exclusion check one index, ``barred[lid]``, which the
    sweep step reads directly.  The header list only ever grows here, and
    the flags never clear: a chaos-truncated entry stays in force for the
    rest of the walk, and Constraint 2's answer for a link is final once
    asked (``checked``), so a walk scans each crossing row at most once.
    The rows are :func:`~repro.topology.csr.cross_rows`' sequences of ids.
    """

    def __init__(self, topo: Topology, header: RecoveryHeader) -> None:
        csr = topo.csr()
        self.header = header
        self._rows = cross_rows(topo)
        self._links = csr.links
        self.recorded = bytearray(csr.lid_size)
        self.barred = bytearray(csr.lid_size)
        self.checked = bytearray(csr.lid_size)
        for link in header.cross_links:
            self._mark(topo.link_index(link))

    def _mark(self, lid: int) -> None:
        self.recorded[lid] = self.checked[lid] = 1
        barred = self.barred
        for other in self._rows[lid]:
            barred[other] = 1

    def record(self, lid: int) -> bool:
        """Record link ``lid`` in ``cross_link``; True when newly added."""
        if self.recorded[lid]:
            return False
        self._mark(lid)
        # Not flagged, so not in the field: append without a scan.
        self.header.cross_links.append(self._links[lid])
        return True

    def seed_initiator_links(self, view: LocalView, initiator: int) -> List[Link]:
        """Constraint 1 seeding at the recovery initiator.

        For each unreachable neighbor ``v_j`` of the initiator, record
        ``e_{i,j}`` in ``cross_link`` if it crosses other links.  Returns
        the links recorded.
        """
        recorded: List[Link] = []
        for lid in view.failed_lids(initiator):
            if self._rows[lid] and self.record(lid):
                recorded.append(self._links[lid])
        return recorded

    def after_selection(self, lid: int) -> bool:
        """Constraint 2 bookkeeping after the sweep picked link ``lid``.

        If a link crosses the selected one and is not already barred by the
        recorded set, record the selected link so that crossing link can
        never be chosen later.  Returns True when it was recorded.  A
        ``checked`` link answers False at once; otherwise its row is
        scanned in place in the relation's id buffer.
        """
        checked = self.checked
        if checked[lid]:
            return False
        checked[lid] = 1
        rows, barred = self._rows, self.barred
        bounds = rows.bounds
        for crosser in rows.ids[bounds[lid] : bounds[lid + 1]]:
            if not barred[crosser]:
                return self.record(lid)
        return False
