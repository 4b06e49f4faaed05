"""Serial==parallel parity through the shared sharding layer.

Satellite of ISSUE 5: both parallel drivers now run through
:func:`repro.eval.sharding.run_sharded`; these tests pin bit-identity
for a sweep that includes the OSPF-reconvergence baseline — a scheme the
sharding/traffic code never mentions by name.
"""

from repro import obs
from repro.eval.experiments import table3_recoverable, traffic_weighted_table3
from repro.eval.parallel import parallel_table3, parallel_traffic

TOPOS = ("AS209",)
APPROACHES = ("RTR", "OSPF")
SEED = 3


class TestOSPFSweepParity:
    def test_table3_parallel_matches_serial(self):
        serial = table3_recoverable(TOPOS, 30, SEED, approaches=APPROACHES)
        parallel = parallel_table3(
            TOPOS, 30, SEED, approaches=APPROACHES, jobs=4, shards_per_topology=4
        )
        assert parallel == serial

    def test_traffic_parallel_matches_serial(self):
        serial = traffic_weighted_table3(
            TOPOS, n_scenarios=4, seed=SEED, n_flows=5_000, approaches=APPROACHES
        )
        parallel = parallel_traffic(
            TOPOS,
            4,
            seed=SEED,
            n_flows=5_000,
            approaches=APPROACHES,
            jobs=2,
            shards_per_topology=2,
        )
        assert parallel == serial

    def test_per_scheme_counters_merge_identically(self):
        # The worker obs snapshots (one shared merge implementation now)
        # must reproduce the serial per-scheme case counters exactly.
        prior = obs.enabled()
        obs.enable()
        try:
            obs.reset()
            table3_recoverable(TOPOS, 30, SEED, approaches=APPROACHES)
            serial = obs.snapshot()["metrics"]["counters"]
            obs.reset()
            parallel_table3(
                TOPOS, 30, SEED, approaches=APPROACHES, jobs=4, shards_per_topology=4
            )
            merged = obs.snapshot()["metrics"]["counters"]
        finally:
            obs.reset()
            if not prior:
                obs.disable()
        for name in APPROACHES:
            key = f"eval.cases.scheme.{name}"
            assert merged[key] == serial[key] > 0
        assert merged["eval.cases"] == serial["eval.cases"]
