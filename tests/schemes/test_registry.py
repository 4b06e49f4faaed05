"""Tests for the recovery-scheme registry and its error messages."""

import pytest

from repro.eval import EvaluationRunner
from repro.schemes import (
    RecoveryScheme,
    SchemeInstance,
    create_scheme,
    get_scheme,
    register_scheme,
    scheme_names,
)
from repro.schemes import registry as registry_module
from repro.topology import isp_catalog


@pytest.fixture(scope="module")
def topo():
    return isp_catalog.build("AS209", seed=0)


class TestLookup:
    def test_builtins_are_registered(self):
        names = scheme_names()
        for expected in ("RTR", "FCP", "MRC", "OSPF", "Oracle"):
            assert expected in names

    def test_names_are_sorted(self):
        names = scheme_names()
        assert list(names) == sorted(names)

    def test_get_scheme_returns_class(self):
        cls = get_scheme("RTR")
        assert issubclass(cls, RecoveryScheme)
        assert cls.name == "RTR"

    def test_create_scheme_ignores_foreign_options(self):
        # Drivers pass one shared option bag; schemes must tolerate
        # options meant for their siblings.
        scheme = create_scheme("FCP", rtr_config=None, mrc_seed=7)
        assert scheme.name == "FCP"


class TestUnknownNameError:
    def test_error_lists_registered_schemes(self):
        with pytest.raises(ValueError, match="registered schemes are"):
            get_scheme("XYZ")

    def test_error_suggests_nearest_match(self):
        with pytest.raises(ValueError, match="did you mean 'FCP'"):
            get_scheme("FPC")

    def test_runner_rejects_unknown_approach_with_rich_error(self, topo):
        # Regression: eval/runner.py used to raise a bare "unknown
        # approaches: [...]"; the registry error names every scheme and
        # the closest spelling.
        with pytest.raises(ValueError) as excinfo:
            EvaluationRunner(topo, approaches=("RTR", "OSFP"))
        message = str(excinfo.value)
        assert "registered schemes are" in message
        assert "RTR" in message and "FCP" in message
        assert "did you mean 'OSPF'" in message


class TestRegistration:
    def test_reregistering_same_class_is_idempotent(self):
        cls = get_scheme("RTR")
        assert register_scheme(cls) is cls
        assert get_scheme("RTR") is cls

    def test_distinct_class_cannot_claim_taken_name(self):
        class Impostor(RecoveryScheme):
            name = "RTR"

        with pytest.raises(ValueError, match="already registered"):
            register_scheme(Impostor)

    def test_reexecuted_definition_is_idempotent(self):
        # runpy re-executes example modules under a new module object;
        # the re-created class has the same qualname and must not clash.
        original = get_scheme("RTR")

        class RTRScheme(RecoveryScheme):  # same qualname trick won't apply
            name = "Transient"

            def _instantiate(self, scenario, penalty):
                return SchemeInstance(self.name, object())

        try:
            register_scheme(RTRScheme)
            clone = type(
                "RTRScheme", (RecoveryScheme,), {"name": "Transient"}
            )
            clone.__qualname__ = RTRScheme.__qualname__
            register_scheme(clone)  # no ValueError: same qualname
            assert get_scheme("Transient") is clone
        finally:
            registry_module._REGISTRY.pop("Transient", None)
        assert get_scheme("RTR") is original

    def test_non_scheme_class_rejected(self):
        with pytest.raises(TypeError):
            register_scheme(dict)

    def test_empty_name_rejected(self):
        class Nameless(RecoveryScheme):
            pass

        with pytest.raises(ValueError, match="non-empty"):
            register_scheme(Nameless)
