"""Tests for repro.traffic.flows (largest-remainder apportionment)."""

import pytest

from repro.errors import EvaluationError
from repro.topology import grid_topology
from repro.traffic import TrafficMatrix, aggregate_flows, gravity_matrix


def test_sums_exactly_to_n_flows():
    matrix = gravity_matrix(grid_topology(4, 4), seed=2)
    for n in (0, 1, 7, 999, 100_003):
        flow_set = aggregate_flows(matrix, n)
        assert flow_set.n_flows == n
        assert sum(b.flows for b in flow_set.batches()) == n


def test_proportional_within_one_flow():
    matrix = TrafficMatrix({(0, 1): 1.0, (0, 2): 2.0, (0, 3): 7.0})
    flow_set = aggregate_flows(matrix, 1000)
    for batch in flow_set.batches():
        exact = 1000 * batch.demand / matrix.total_demand
        assert abs(batch.flows - exact) < 1.0


def test_deterministic():
    matrix = gravity_matrix(grid_topology(4, 4), seed=5)
    a = [(b.pair, b.flows) for b in aggregate_flows(matrix, 12_345).batches()]
    b = [(b.pair, b.flows) for b in aggregate_flows(matrix, 12_345).batches()]
    assert a == b


def test_fewer_flows_than_pairs():
    matrix = TrafficMatrix({(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0})
    flow_set = aggregate_flows(matrix, 2)
    assert flow_set.n_flows == 2
    assert all(b.flows in (0, 1) for b in flow_set.batches())


def test_negative_flows_rejected():
    matrix = TrafficMatrix({(0, 1): 1.0})
    with pytest.raises(EvaluationError):
        aggregate_flows(matrix, -1)


def test_empty_matrix_rejected():
    with pytest.raises(EvaluationError, match="empty matrix"):
        aggregate_flows(TrafficMatrix({}), 10)

