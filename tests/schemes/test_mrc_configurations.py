"""Pinned MRC backup configurations for every catalog AS.

``generate_configurations`` is a greedy search whose every step asks
``_backbone_connected``; a change to that check's traversal must not move
a single placement.  For each Table II AS (built at seed 0, generated at
seed 0) the sha256 of every configuration's ``isolated_nodes`` and
``restricted_links`` plus the ``unprotected_nodes`` set must equal its
pin; the configuration and unprotected counts are pinned in the clear so
a failure says roughly what moved.

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
    'AS209': (4, 2, 'cea775b9aca2d0653c29260702cbc8bf3d336f72631dcbb661dcfd903228c00c'),
    'AS701': (4, 2, '3a5fc5bb745c202ac35a89a361aea95b6256bd5184fdf006d349f05eabb33d04'),
    'AS1239': (5, 3, 'dcf01f3dd82f2041743b75f2e8970a03f3bdcfb6d6c060a33876c8be4bbb68dc'),
    'AS3320': (4, 0, '396c1aeda01df3361f0b01fe321ad1c678658293ec0bfff8f6fe37000faa62aa'),
    'AS3549': (4, 0, 'ecff157e83f3ebba1a49470b7bec57adca518c555f7479fb546dd7ed2dc835e4'),
    'AS3561': (4, 0, '71356a94a4abc92cd247d6d739906db331629d214cd4ca02b208b5295c6c374c'),
    'AS4323': (4, 1, 'cd658491a46ad3d92f81fd1caad49bb33310121b844173b83e9524d1019282eb'),
    'AS7018': (8, 28, '3851279f5977582c08a8f54fdbe882782eb9df5b82da940fa5a80eacd3b3c4ac'),
}


def fingerprint(name):
    """(configuration count, unprotected count, sha256 of every set)."""
    topo = isp_catalog.build(name, seed=0)
    configs = generate_configurations(topo, seed=0)
    unprotected = sorted(unprotected_nodes(topo, configs))
    lines = [
        f"{config.index} isolated={sorted(config.isolated_nodes)} "
        f"restricted={sorted(tuple(link) for link in config.restricted_links)}"
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
