"""Pinned result streams: every registered scheme, clean and under faults.

Three topologies x five runs x every registered scheme, each swept through
``EvaluationRunner.run``.  The sha256 of one scheme's full result stream
(every observable field, floats via ``float.hex``) must equal its pin.
The runs are the clean world, three fault plans (loss plus a secondary
failure, detection misses, loss only) and a clean run with §III-D
re-invocation enabled.  Plus the golden Table III/IV snapshot byte check.

To re-pin after a deliberate behaviour change, run this module as a
script (``PYTHONPATH=src python tests/simulator/test_walk_parity.py``)
and paste the printed table over :data:`PINS`.
"""

import functools
import hashlib
import random

import pytest

from repro.chaos import FaultPlan, SecondaryFailure
from repro.core import RTRConfig
from repro.eval import EvaluationRunner, generate_cases
from repro.schemes import scheme_names
from repro.topology import isp_catalog
from repro.topology.generators import geometric_isp

ALL_SCHEMES = scheme_names()

#: name -> (topology builder, case-generation seed).  The random graphs
#: are small enough to keep the matrix fast and dense enough for
#: alternate paths; AS1239 is a catalog ISP.
TOPOLOGIES = {
    "rand11": (lambda: geometric_isp(24, 40, random.Random(11), name="rand11"), 12),
    "rand23": (lambda: geometric_isp(40, 64, random.Random(23), name="rand23"), 24),
    "AS1239": (lambda: isp_catalog.build("AS1239", seed=0), 1239),
}

#: name -> EvaluationRunner options of one run.
RUNS = {
    "clean": {},
    "chaos": {
        "fault_plan": FaultPlan(
            seed=42,
            packet_loss_rate=0.08,
            secondary_failures=(SecondaryFailure(at_hop=4),),
        )
    },
    "miss": {"fault_plan": FaultPlan(seed=7, detection_miss_rate=0.6)},
    "loss": {"fault_plan": FaultPlan(seed=42, packet_loss_rate=0.2)},
    "reinvoke": {"rtr_config": RTRConfig(max_phase2_reinvocations=2)},
}

#: (topology, run, scheme) -> sha256 of the scheme's fingerprint stream.
PINS = {
    ('rand11', 'clean', 'FCP'): 'c294727661a7a96bcbea7f0e40a8a4197822921a5f932d556d722727f55e3203',
    ('rand11', 'clean', 'MRC'): '76457e89848929c49deb367dbd1a6e826efd134ead19550b7633260cd2e2c734',
    ('rand11', 'clean', 'OSPF'): '9336588ae91084e56752c5d85f55d16b4d2b57ccab05c2269dc05e0b793333b9',
    ('rand11', 'clean', 'Oracle'): '228225c0c6b7b097d0a8248f2703cc1e54f78684aaffc29d73dbe17f7a873971',
    ('rand11', 'clean', 'RTR'): 'd9a389d5737ac08274170dae01c263b678565d14273ac04a2d23f8d1a78bd8a1',
    ('rand11', 'clean', 'r3'): '5bd98c4da848e33049674d25f1b3ac4f6b6b9eb46356a17ce62e2e1f29848b7c',
    ('rand11', 'chaos', 'FCP'): 'e801d01d37559bd821ee6e64e1ed4127977b32c57ea917ce3d5275a420013187',
    ('rand11', 'chaos', 'MRC'): '76457e89848929c49deb367dbd1a6e826efd134ead19550b7633260cd2e2c734',
    ('rand11', 'chaos', 'OSPF'): '9336588ae91084e56752c5d85f55d16b4d2b57ccab05c2269dc05e0b793333b9',
    ('rand11', 'chaos', 'Oracle'): '228225c0c6b7b097d0a8248f2703cc1e54f78684aaffc29d73dbe17f7a873971',
    ('rand11', 'chaos', 'RTR'): '2244b8173868870757387da5c2e6fe02967c87392fe56b0daaa7fbf24099bcfd',
    ('rand11', 'chaos', 'r3'): '561409660679443ee62ee1fa38fe68b1f3fd248a2f172ed7a837bcda4efece91',
    ('rand11', 'miss', 'FCP'): 'd7da7f028eeda12dcddfcc5cc4cab7f447e4e1ed0ae6f3a145a8064c9027efcf',
    ('rand11', 'miss', 'MRC'): 'fd65902a5fab040d88807d5ef264eae6f460de9ee1b7c670c659e841e5c5fc4d',
    ('rand11', 'miss', 'OSPF'): '9336588ae91084e56752c5d85f55d16b4d2b57ccab05c2269dc05e0b793333b9',
    ('rand11', 'miss', 'Oracle'): '228225c0c6b7b097d0a8248f2703cc1e54f78684aaffc29d73dbe17f7a873971',
    ('rand11', 'miss', 'RTR'): 'ec21b534487361a85a868ff77d5137c2799b56f73eada52dcd34f6c7054039b3',
    ('rand11', 'miss', 'r3'): '50db66c985e69a4317e688c4d13568e02863e218f3ef5b3778a5ca1178f10077',
    ('rand11', 'loss', 'FCP'): 'c294727661a7a96bcbea7f0e40a8a4197822921a5f932d556d722727f55e3203',
    ('rand11', 'loss', 'MRC'): '76457e89848929c49deb367dbd1a6e826efd134ead19550b7633260cd2e2c734',
    ('rand11', 'loss', 'OSPF'): '9336588ae91084e56752c5d85f55d16b4d2b57ccab05c2269dc05e0b793333b9',
    ('rand11', 'loss', 'Oracle'): '228225c0c6b7b097d0a8248f2703cc1e54f78684aaffc29d73dbe17f7a873971',
    ('rand11', 'loss', 'RTR'): 'eb9b60baa20fe209e878fa3e7096ea4e21feb57eae78566c08e735343b9b3527',
    ('rand11', 'loss', 'r3'): '757002591852697d244602e20c1d177bc53cd286ce5467ec0881c28f052f54c8',
    ('rand11', 'reinvoke', 'FCP'): 'c294727661a7a96bcbea7f0e40a8a4197822921a5f932d556d722727f55e3203',
    ('rand11', 'reinvoke', 'MRC'): '76457e89848929c49deb367dbd1a6e826efd134ead19550b7633260cd2e2c734',
    ('rand11', 'reinvoke', 'OSPF'): '9336588ae91084e56752c5d85f55d16b4d2b57ccab05c2269dc05e0b793333b9',
    ('rand11', 'reinvoke', 'Oracle'): '228225c0c6b7b097d0a8248f2703cc1e54f78684aaffc29d73dbe17f7a873971',
    ('rand11', 'reinvoke', 'RTR'): 'def341983ffd54e9f94792b55ddc9b91c0b396a7e3caf2e263aa1f8083467089',
    ('rand11', 'reinvoke', 'r3'): '5bd98c4da848e33049674d25f1b3ac4f6b6b9eb46356a17ce62e2e1f29848b7c',
    ('rand23', 'clean', 'FCP'): 'afb6e03c6ffa5b5d9893dab995a4d28d31bc6c27251be336d91a9cdf2533950f',
    ('rand23', 'clean', 'MRC'): '98d993499d625319b4511a1507051490b8fcfa479cec279a0d7990f950250ba7',
    ('rand23', 'clean', 'OSPF'): 'ac1f52d8fd815bfbc45ced6f72288f5cb6809f351dc8c14dfd3a43bd2d632dc6',
    ('rand23', 'clean', 'Oracle'): '8e354043f14a23ebc85f2dd4c3d2126db067e9ea25d4434aa41c4a2539fd6735',
    ('rand23', 'clean', 'RTR'): 'a0aa8f3648873dfdeb4d4252c1b32610a847b6277bb479cf954ca8c80dfe35f1',
    ('rand23', 'clean', 'r3'): '3df8fb4c6704b58f6ed07b1eead32ac1859123cf6971d9a60582b89147015a3f',
    ('rand23', 'chaos', 'FCP'): 'a1613933fa3822605e152ee40c369e0b827933f9cdea103d49d7e4abfb9414bd',
    ('rand23', 'chaos', 'MRC'): '48a69414b1f4c30089e5c2c0e8872ce830937bfe8ac2a8d0cc2c1586c938f05d',
    ('rand23', 'chaos', 'OSPF'): 'ac1f52d8fd815bfbc45ced6f72288f5cb6809f351dc8c14dfd3a43bd2d632dc6',
    ('rand23', 'chaos', 'Oracle'): '8e354043f14a23ebc85f2dd4c3d2126db067e9ea25d4434aa41c4a2539fd6735',
    ('rand23', 'chaos', 'RTR'): '8e27d4c9851e2122421b02221ae111dcb1d37c839753942a30bf9dfe2a8cc53d',
    ('rand23', 'chaos', 'r3'): '3a65674f1e17798d950f35bff8f0c37b8e08aa15ca29051e56baf1095ae0b292',
    ('rand23', 'miss', 'FCP'): '0865bc2ae910e8c4f11d89271e94c776bf23856e7afc76d7b039380ee484510c',
    ('rand23', 'miss', 'MRC'): '90b668f7d4e761a8e78399ccf2cf6ad71e9b53516e035a23998a665cc01db560',
    ('rand23', 'miss', 'OSPF'): 'ac1f52d8fd815bfbc45ced6f72288f5cb6809f351dc8c14dfd3a43bd2d632dc6',
    ('rand23', 'miss', 'Oracle'): '8e354043f14a23ebc85f2dd4c3d2126db067e9ea25d4434aa41c4a2539fd6735',
    ('rand23', 'miss', 'RTR'): '814f6b9683dfd3a54943723ed5c2410285251687678f7cf03c836e235e728172',
    ('rand23', 'miss', 'r3'): '0afc9c5a70fd909fa5e4b7dabb14de7c4190d741dc9694c8d84895305b2bf2af',
    ('rand23', 'loss', 'FCP'): 'afb6e03c6ffa5b5d9893dab995a4d28d31bc6c27251be336d91a9cdf2533950f',
    ('rand23', 'loss', 'MRC'): '98d993499d625319b4511a1507051490b8fcfa479cec279a0d7990f950250ba7',
    ('rand23', 'loss', 'OSPF'): 'ac1f52d8fd815bfbc45ced6f72288f5cb6809f351dc8c14dfd3a43bd2d632dc6',
    ('rand23', 'loss', 'Oracle'): '8e354043f14a23ebc85f2dd4c3d2126db067e9ea25d4434aa41c4a2539fd6735',
    ('rand23', 'loss', 'RTR'): 'abede9f5c177eddb13eddf894f5fee389a8fd44a2c00ecda2b6f5305e53946e3',
    ('rand23', 'loss', 'r3'): '38a31cd58f1fb4810633b7d89434d35283ecc7bee035d170690a92d1ce8a5c0a',
    ('rand23', 'reinvoke', 'FCP'): 'afb6e03c6ffa5b5d9893dab995a4d28d31bc6c27251be336d91a9cdf2533950f',
    ('rand23', 'reinvoke', 'MRC'): '98d993499d625319b4511a1507051490b8fcfa479cec279a0d7990f950250ba7',
    ('rand23', 'reinvoke', 'OSPF'): 'ac1f52d8fd815bfbc45ced6f72288f5cb6809f351dc8c14dfd3a43bd2d632dc6',
    ('rand23', 'reinvoke', 'Oracle'): '8e354043f14a23ebc85f2dd4c3d2126db067e9ea25d4434aa41c4a2539fd6735',
    ('rand23', 'reinvoke', 'RTR'): '5040b64be362348385632ebde26fd835bfa032fe95f9aac6a574a28cc84b8aa3',
    ('rand23', 'reinvoke', 'r3'): '3df8fb4c6704b58f6ed07b1eead32ac1859123cf6971d9a60582b89147015a3f',
    ('AS1239', 'clean', 'FCP'): 'e9b827ad2acf439c70a4c9ed129d58f660c1057dafe335ca64d8734adaf64b4c',
    ('AS1239', 'clean', 'MRC'): 'df56695515801af221ac72dfbaff719857f462f639e30220b4d93f2b920d9128',
    ('AS1239', 'clean', 'OSPF'): '97498797334d3cf1c159a9e1a1e40f53acfc2beb6ea777f7c92256cada7357bc',
    ('AS1239', 'clean', 'Oracle'): 'f281a7a2d6a30c03e23fa0ce21ea7be6339086816fe644015bb81a2f12fc4a55',
    ('AS1239', 'clean', 'RTR'): 'eb81d2fa7785f610bcd3b99221287dab87f3351be364223675327577953c1e0e',
    ('AS1239', 'clean', 'r3'): '640e51f39e4263c6fb34dac13be76f665ea470a9555ab66a7971662d8b366658',
    ('AS1239', 'chaos', 'FCP'): '8ba5d1016d785c9062ad3ef1dc26fbc69b91c5b0f1711814f51f212cf73708a7',
    ('AS1239', 'chaos', 'MRC'): '9ff8a5099c2d34d34fbf2cb9472f991d8af7120a9f1fae53e2194b221d40e0d0',
    ('AS1239', 'chaos', 'OSPF'): '97498797334d3cf1c159a9e1a1e40f53acfc2beb6ea777f7c92256cada7357bc',
    ('AS1239', 'chaos', 'Oracle'): 'f281a7a2d6a30c03e23fa0ce21ea7be6339086816fe644015bb81a2f12fc4a55',
    ('AS1239', 'chaos', 'RTR'): '93c8b7d93cb54cadd77dce44b1c358f28e01a35a3591d1a8bfb6f7512acfd8ad',
    ('AS1239', 'chaos', 'r3'): 'da08b95496286d23e7eef5827b40c0ec321da701b2e5f35c41821807ec51530a',
    ('AS1239', 'miss', 'FCP'): '05d1a4756be99506a33d2f42798dd8be02f8839a0be6dcc5b588968ae0c2ba76',
    ('AS1239', 'miss', 'MRC'): 'e0028e4bc5ffb7f479dc9415fc1e311aaac9f0f072741c91cab1a92edf0e67e9',
    ('AS1239', 'miss', 'OSPF'): '97498797334d3cf1c159a9e1a1e40f53acfc2beb6ea777f7c92256cada7357bc',
    ('AS1239', 'miss', 'Oracle'): 'f281a7a2d6a30c03e23fa0ce21ea7be6339086816fe644015bb81a2f12fc4a55',
    ('AS1239', 'miss', 'RTR'): 'af45beda76e865f53c2176a37e708f496b8989f297bb6307d059ef927081a213',
    ('AS1239', 'miss', 'r3'): '732a57bafccaabff49ec53a294266773fb102b01a1e5cf9ce5988bcb9eac01ac',
    ('AS1239', 'loss', 'FCP'): 'e9b827ad2acf439c70a4c9ed129d58f660c1057dafe335ca64d8734adaf64b4c',
    ('AS1239', 'loss', 'MRC'): 'df56695515801af221ac72dfbaff719857f462f639e30220b4d93f2b920d9128',
    ('AS1239', 'loss', 'OSPF'): '97498797334d3cf1c159a9e1a1e40f53acfc2beb6ea777f7c92256cada7357bc',
    ('AS1239', 'loss', 'Oracle'): 'f281a7a2d6a30c03e23fa0ce21ea7be6339086816fe644015bb81a2f12fc4a55',
    ('AS1239', 'loss', 'RTR'): '37cf32a8d5fab2c8670d9c040b32f0c89dd5e0cc3246bdfce10d3e06d5eacfec',
    ('AS1239', 'loss', 'r3'): 'beb8033d694fbdb0c93e7c6e12eb7b8eb35ab925b9b549eb0a6dfe8179d954d0',
    ('AS1239', 'reinvoke', 'FCP'): 'e9b827ad2acf439c70a4c9ed129d58f660c1057dafe335ca64d8734adaf64b4c',
    ('AS1239', 'reinvoke', 'MRC'): 'df56695515801af221ac72dfbaff719857f462f639e30220b4d93f2b920d9128',
    ('AS1239', 'reinvoke', 'OSPF'): '97498797334d3cf1c159a9e1a1e40f53acfc2beb6ea777f7c92256cada7357bc',
    ('AS1239', 'reinvoke', 'Oracle'): 'f281a7a2d6a30c03e23fa0ce21ea7be6339086816fe644015bb81a2f12fc4a55',
    ('AS1239', 'reinvoke', 'RTR'): '54b5fdb29cd5910b2f80e95a5c44482543527170d4cb80ca6389cf38e2173e6f',
    ('AS1239', 'reinvoke', 'r3'): '640e51f39e4263c6fb34dac13be76f665ea470a9555ab66a7971662d8b366658',
}


def _hex(value):
    return float(value).hex()


def fingerprint(case, result):
    """Every observable bit of one case's result, floats by hex."""
    acc = result.accounting
    return (
        (case.initiator, case.destination, case.trigger),
        result.approach,
        result.status,
        result.delivered,
        None if result.path is None else tuple(result.path.nodes),
        None if result.path is None else _hex(result.path.cost),
        acc.sp_computations,
        acc.hops_traveled,
        _hex(acc.clock),
        tuple((_hex(t), b) for t, b in acc.header_timeline),
        acc.retransmissions,
        _hex(result.phase1_duration),
        result.phase1_hops,
        result.drop_hops,
        result.drop_packet_bytes,
        result.fallback,
        result.retries,
        result.error,
    )


@functools.lru_cache(maxsize=None)
def _case_set(topology):
    build, seed = TOPOLOGIES[topology]
    topo = build()
    return topo, generate_cases(topo, random.Random(seed), 24, 6)


def stream_digests(topology, run):
    """scheme -> sha256 of its fingerprint stream for one matrix cell."""
    topo, case_set = _case_set(topology)
    records = EvaluationRunner(
        topo, routing=case_set.routing, approaches=ALL_SCHEMES, **RUNS[run]
    ).run(case_set)
    return {
        name: hashlib.sha256(
            repr([fingerprint(r.case, r.result) for r in records[name]]).encode()
        ).hexdigest()
        for name in ALL_SCHEMES
    }


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_result_streams_match_pins(topology, run):
    digests = stream_digests(topology, run)
    for name in ALL_SCHEMES:
        assert digests[name] == PINS[(topology, run, name)], (
            f"{name} on {topology}/{run} diverged from its pinned stream"
        )


def test_pinned_runs_exercise_the_faults():
    """The matrix is only a gate if its fault rows change something."""
    for name in ("RTR", "FCP", "MRC", "r3"):
        assert any(
            PINS[(t, "chaos", name)] != PINS[(t, "clean", name)] for t in TOPOLOGIES
        ), f"the chaos plan never perturbs {name}"
    assert any(
        PINS[(t, "reinvoke", "RTR")] != PINS[(t, "clean", "RTR")] for t in TOPOLOGIES
    ), "no case re-invokes phase 2"
    for t in TOPOLOGIES:
        # Loss samples recovery walks and source routes, not table walks.
        assert PINS[(t, "loss", "FCP")] == PINS[(t, "clean", "FCP")]


def test_golden_snapshot_byte_parity():
    """Table III/IV + Fig. 7 golden sweep: byte-identical canonical JSON,
    not just the structural diff ``tests/eval/test_golden.py`` checks."""
    import json

    from repro.eval.golden import compute_snapshot, load_snapshot

    computed = json.dumps(compute_snapshot(), sort_keys=True).encode()
    stored = json.dumps(load_snapshot(), sort_keys=True).encode()
    assert computed == stored


if __name__ == "__main__":
    print("PINS = {")
    for topology in TOPOLOGIES:
        for run in RUNS:
            for name, digest in stream_digests(topology, run).items():
                print(f"    ({topology!r}, {run!r}, {name!r}): {digest!r},")
    print("}")
