"""Sharded == serial where the numpy kernels are live in pool workers.

``scale:5000`` is past the node count at which the SPT kernels switch to
numpy, so workers rebuild the topology from its spec, mirror it into
numpy on their own, and must still reproduce the serial table exactly.
"""

import pytest

from repro.eval.experiments import _build_topology, table3_recoverable
from repro.eval.parallel import parallel_table3

#: Case generation stops at the case that fills the quota, but every
#: destination it looks at costs one O(n) routing tree: seed 4 fills ten
#: cases after 120 trees (~0.5 s), seed 3 needs all 5,000 (~40 s, twice).
SEED = 4


def test_scale5000_sharded_table3_equals_serial():
    pytest.importorskip("numpy")
    topologies, approaches = ("scale:5000",), ("RTR", "FCP")
    # Forked workers would inherit a topology the parent already built;
    # the sharded run goes first, from an empty memo, so they rebuild it.
    _build_topology.cache_clear()
    sharded = parallel_table3(
        topologies, 10, SEED, approaches=approaches, jobs=2, shards_per_topology=3
    )
    assert sharded == table3_recoverable(topologies, 10, SEED, approaches)
