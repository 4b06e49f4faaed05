"""Scheme conformance suite: one contract, checked for every registration.

Every test here is parametrized over :func:`repro.schemes.scheme_names`,
so a newly registered scheme — built-in or plugin — gets lifecycle,
determinism, error-isolation, and obs-emission coverage for free.
"""

import dataclasses
import random

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.eval import EvaluationRunner, generate_cases
from repro.routing import SPTCache
from repro.schemes import (
    SchemeInstance,
    SchemeLifecycleError,
    create_scheme,
    scheme_names,
)
from repro.simulator import RecoveryResult
from repro.te.penalty import LinkPenalty
from repro.topology import isp_catalog

ALL_SCHEMES = scheme_names()


@pytest.fixture(scope="module")
def topo():
    return isp_catalog.build("AS209", seed=0)


@pytest.fixture(scope="module")
def case_set(topo):
    return generate_cases(topo, random.Random(3), 8, 4)


@pytest.fixture(autouse=True)
def clean_obs_state():
    prior = obs.enabled()
    obs.disable()
    obs.reset()
    yield
    obs.reset()
    if prior:
        obs.enable()
    else:
        obs.disable()


def _statuses(records):
    return [(r.status, r.delivered) for r in records]


@pytest.mark.parametrize("name", ALL_SCHEMES)
class TestSchemeContract:
    def test_instantiate_before_prepare_raises(self, name, case_set):
        scheme = create_scheme(name)
        with pytest.raises(SchemeLifecycleError):
            scheme.instantiate(case_set.scenarios[0])

    def test_runs_every_case_with_valid_statuses(self, name, topo, case_set):
        runner = EvaluationRunner(
            topo, routing=case_set.routing, approaches=(name,)
        )
        records = runner.run(case_set)[name]
        assert len(records) == len(case_set.cases)
        valid = {"delivered", "dropped", "fallback", "error"}
        for record in records:
            assert record.status in valid
            assert isinstance(record.result, RecoveryResult)
            assert record.result.approach == name

    def test_deterministic_under_fixed_seed(self, name, topo, case_set):
        def sweep():
            runner = EvaluationRunner(
                topo, routing=case_set.routing, approaches=(name,)
            )
            return _statuses(runner.run(case_set)[name])

        assert sweep() == sweep()

    def test_per_case_errors_are_isolated(self, name, topo, case_set, monkeypatch):
        # Crash the 2nd case: every case runs through recover().
        original_recover = SchemeInstance.recover
        calls = {"n": 0}

        def flaky_recover(self, case):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic conformance crash")
            return original_recover(self, case)

        monkeypatch.setattr(SchemeInstance, "recover", flaky_recover)
        runner = EvaluationRunner(
            topo, routing=case_set.routing, approaches=(name,)
        )
        records = runner.run(case_set)[name]
        assert len(records) == len(case_set.cases)
        errors = [r for r in records if r.status == "error"]
        assert len(errors) >= 1
        assert "synthetic conformance crash" in errors[0].result.error

    def test_null_penalty_changes_nothing(self, name, topo, case_set):
        """``instantiate(scenario, penalty=LinkPenalty({}))`` == ``instantiate(scenario)``.

        A live penalty with no loaded link routes on the base metric, and
        one that is never refreshed drops nothing a scheme cached.
        """

        def stream(penalty):
            runner = EvaluationRunner(
                topo, routing=case_set.routing, approaches=(name,)
            )
            records = runner.run(case_set, load=lambda _name: (penalty, None))
            return [r.result for r in records[name]]

        assert stream(LinkPenalty({})) == stream(None)

    def test_emits_per_scheme_case_counter(self, name, topo, case_set):
        obs.enable()
        obs.reset()
        runner = EvaluationRunner(
            topo, routing=case_set.routing, approaches=(name,)
        )
        runner.run(case_set)
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters[f"eval.cases.scheme.{name}"] == len(case_set.cases)
        assert counters["eval.cases"] == len(case_set.cases)


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_failed_initiator_is_one_error(name, topo, case_set):
    """Every scheme refuses a dead initiator with the same message."""
    case = next(
        c for c in case_set.cases if case_set.scenarios[c.scenario_index].failed_nodes
    )
    scenario = case_set.scenarios[case.scenario_index]
    dead = min(scenario.failed_nodes)
    scheme = create_scheme(name)
    scheme.prepare(topo, case_set.routing, SPTCache())
    instance = scheme.instantiate(scenario)
    with pytest.raises(SimulationError, match=rf"^recovery initiator {dead} has failed$"):
        instance.recover(dataclasses.replace(case, initiator=dead))
