"""Pinned MRC backup configurations for every catalog AS.

``generate_configurations`` is a greedy search whose every step asks
``_backbone_connected``; a change to that check's traversal must not move
a single placement.  For each Table II AS (built at seed 0, generated at
seed 0) the sha256 of every configuration's ``isolated_nodes``,
``restricted_links`` and ``isolated_links`` plus the ``unprotected_nodes``
set must equal its pin; the configuration and unprotected counts are
pinned in the clear so a failure says roughly what moved.

To re-pin after a deliberate behaviour change, run this module as a
script (``PYTHONPATH=src python tests/schemes/test_mrc_configurations.py``)
and paste the printed table over :data:`PINS`.
"""

import hashlib

import pytest

from repro.schemes.mrc import generate_configurations, unprotected_nodes
from repro.topology import isp_catalog

#: AS name -> (configurations, unprotected nodes, sha256 of the fingerprint).
PINS = {
    'AS209': (4, 2, 'a17e3e4bf663194c2d77264615646b30da686585982bad95d81cbb44bcbad88d'),
    'AS701': (4, 2, 'c8b70abe514ba106da7bda9f582e7e8c4a6094a76a1d973753e30ec20240deff'),
    'AS1239': (5, 3, '60d9990dcefe87dd0ac2c97af92f935d90c2aa3e9b95be9db5d6d474a70bab84'),
    'AS3320': (4, 0, '05a0d2b882f20b93c5d10801ab84d3a88f5d76e15dd834a71c17426afd653850'),
    'AS3549': (4, 0, '8761430f2408236909f27cc73f4c456be0a7a13a0a671346aba3f165f4c860e2'),
    'AS3561': (4, 0, '423207fc61060414f6aa75429ce8645f3494a68662af988c97b565512fb669bf'),
    'AS4323': (4, 1, '498d2c30846d810e808fd3391b79de567f7a35c945a688f11837f4295c542235'),
    'AS7018': (8, 28, 'e734cf9e8cbfeaf4175e2e4f82ea8bdc77208405ead2e09ba9578c10dc910d92'),
}


def fingerprint(name):
    """(configuration count, unprotected count, sha256 of every set)."""
    topo = isp_catalog.build(name, seed=0)
    configs = generate_configurations(topo, seed=0)
    unprotected = sorted(unprotected_nodes(topo, configs))
    lines = [
        f"{config.index} isolated={sorted(config.isolated_nodes)} "
        f"restricted={sorted(tuple(link) for link in config.restricted_links)} "
        f"isolated_links={sorted(tuple(link) for link in config.isolated_links)}"
        for config in configs
    ]
    lines.append(f"unprotected={unprotected}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return len(configs), len(unprotected), digest


@pytest.mark.parametrize("name", isp_catalog.names())
def test_configurations_match_pin(name):
    assert fingerprint(name) == PINS[name]


if __name__ == "__main__":
    print("PINS = {")
    for name in isp_catalog.names():
        print(f"    {name!r}: {fingerprint(name)!r},")
    print("}")
