"""Tests for repro.eval.parallel (case-sharded process-pool fan-out)."""

import pytest

from repro.eval import experiments
from repro.eval.parallel import parallel_table3, shard_cases

TOPOS = ("AS1239", "AS209")
N = 40
SEED = 3


class TestShardCases:
    @pytest.fixture(scope="class")
    def case_set(self):
        import random

        from repro.eval.cases import generate_cases
        from repro.eval.experiments import _build_topology

        topo = _build_topology(TOPOS[0], SEED)
        return generate_cases(topo, random.Random(SEED * 7_919 + 13), N, N // 2)

    def test_concatenation_restores_serial_order(self, case_set):
        serial_order = [
            case
            for _, cases in sorted(case_set.by_scenario().items())
            for case in cases
        ]
        for n_shards in (1, 2, 3, 7, 64):
            shards = shard_cases(case_set, n_shards)
            assert len(shards) == n_shards
            flat = [case for shard in shards for case in shard]
            assert flat == serial_order, n_shards

    def test_scenarios_stay_whole(self, case_set):
        shards = shard_cases(case_set, 4)
        seen = {}
        for index, shard in enumerate(shards):
            for case in shard:
                assert seen.setdefault(case.scenario_index, index) == index

    def test_rejects_zero_shards(self, case_set):
        with pytest.raises(ValueError):
            shard_cases(case_set, 0)


class TestParallelTable3:
    @pytest.fixture(scope="class")
    def parallel_out(self):
        return parallel_table3(TOPOS, N, SEED, jobs=2, shards_per_topology=3)

    def test_bit_identical_to_serial(self, parallel_out):
        # Full-dict equality: sharded parallel must reproduce the serial
        # Table III driver exactly, Overall row included.
        serial = experiments.table3_recoverable(TOPOS, N, SEED)
        assert parallel_out == serial

    def test_overall_aggregation(self, parallel_out):
        serial = experiments.table3_recoverable(TOPOS, N, SEED)
        assert (
            parallel_out["Overall"]["RTR"]["recovery_rate_pct"]
            == serial["Overall"]["RTR"]["recovery_rate_pct"]
        )
        assert parallel_out["Overall"]["RTR"]["cases"] == N * len(TOPOS)

    def test_shard_count_does_not_change_results(self, parallel_out):
        other = parallel_table3(TOPOS, N, SEED, jobs=2, shards_per_topology=1)
        assert other == parallel_out

