"""Topology generators are process-independent.

Pool workers rebuild their topology from its spec string, so sharded
sweeps equal serial ones only if a fresh interpreter — whatever its
``PYTHONHASHSEED`` — builds the same graph *in the same iteration
order*: the CSR arrays every order-sensitive kernel walks must match
element for element, not just as sets.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.topology import topology_from_spec

SPECS = ("scale:2000", "AS7018", "grid:6x7")
SEED = 3


def csr_digest(spec: str) -> str:
    csr = topology_from_spec(spec, seed=SEED).csr()
    arrays = (csr.ids, csr.indptr, csr.nbr, [w.hex() for w in csr.wfwd], csr.lid)
    return hashlib.sha256(repr(arrays).encode()).hexdigest()


_CHILD = """
from tests.topology.test_process_independence import SPECS, csr_digest
for spec in SPECS:
    print(csr_digest(spec))
"""


def test_csr_arrays_independent_of_pythonhashseed():
    expected = [csr_digest(spec) for spec in SPECS]
    src = Path(repro.__file__).resolve().parents[1]
    root = Path(__file__).resolve().parents[2]
    for hash_seed in ("1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), str(root), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", _CHILD],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.split() == expected, f"PYTHONHASHSEED={hash_seed}"
