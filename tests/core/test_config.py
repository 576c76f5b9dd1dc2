"""The frozen execution configuration: env parsing, validation, swaps."""

import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

from repro.core.config import ExecutionConfig, env_capacity
from repro.core.mdm import MDM
from repro.sources.wrappers import RetryPolicy

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


class TestFromEnv:
    def test_empty_environment_gives_the_defaults(self):
        assert ExecutionConfig.from_env({}) == ExecutionConfig()
        assert ExecutionConfig() == ExecutionConfig(
            max_fetch_workers=4,
            retry_policy=RetryPolicy(),
            optimize=True,
            pushdown=True,
            validate_plans=True,
            impact_gate="off",
        )

    @pytest.mark.parametrize(
        "variable, value, field, expected",
        [
            ("MDM_FETCH_WORKERS", "8", "max_fetch_workers", 8),
            ("MDM_FETCH_WORKERS", "1", "max_fetch_workers", 1),
            ("MDM_OPTIMIZE", "0", "optimize", False),
            ("MDM_OPTIMIZE", "1", "optimize", True),
            ("MDM_PUSHDOWN", "false", "pushdown", False),
            ("MDM_PUSHDOWN", "yes", "pushdown", True),
            ("MDM_VALIDATE_PLANS", " No ", "validate_plans", False),
            ("MDM_VALIDATE_PLANS", "OFF", "validate_plans", False),
            ("MDM_IMPACT_GATE", "advisory", "impact_gate", "advisory"),
            ("MDM_IMPACT_GATE", " Blocking ", "impact_gate", "blocking"),
        ],
    )
    def test_each_variable_sets_only_its_field(
        self, variable, value, field, expected
    ):
        config = ExecutionConfig.from_env({variable: value})
        assert getattr(config, field) == expected
        default = getattr(ExecutionConfig(), field)
        assert replace(config, **{field: default}) == ExecutionConfig()

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("MDM_FETCH_WORKERS", "0"),
            ("MDM_FETCH_WORKERS", "four"),
            ("MDM_IMPACT_GATE", "nope"),
        ],
    )
    def test_bad_values_raise(self, variable, value):
        with pytest.raises(ValueError):
            ExecutionConfig.from_env({variable: value})

    def test_cache_capacities(self):
        assert env_capacity("MDM_RESULT_CACHE", {}) == 0
        assert env_capacity("MDM_RESULT_CACHE", {"MDM_RESULT_CACHE": "16"}) == 16
        assert env_capacity("MDM_WRAPPER_CACHE", {"MDM_WRAPPER_CACHE": "8"}) == 8
        with pytest.raises(ValueError):
            env_capacity("MDM_WRAPPER_CACHE", {"MDM_WRAPPER_CACHE": "many"})


class TestEnvAtConstruction:
    """The environment is read when an MDM is built, not at import."""

    def test_variables_apply_to_a_new_mdm(self, monkeypatch):
        monkeypatch.setenv("MDM_FETCH_WORKERS", "2")
        monkeypatch.setenv("MDM_OPTIMIZE", "off")
        monkeypatch.setenv("MDM_IMPACT_GATE", "advisory")
        monkeypatch.setenv("MDM_RESULT_CACHE", "5")
        monkeypatch.setenv("MDM_WRAPPER_CACHE", "7")
        mdm = MDM()
        assert mdm.config == replace(
            ExecutionConfig(),
            max_fetch_workers=2,
            optimize=False,
            impact_gate="advisory",
        )
        assert mdm.result_cache.capacity == 5
        assert mdm.wrapper_cache.capacity == 7

    def test_arguments_override_the_environment(self, monkeypatch):
        monkeypatch.setenv("MDM_PUSHDOWN", "0")
        monkeypatch.setenv("MDM_RESULT_CACHE", "5")
        mdm = MDM(pushdown=True, result_cache_size=0)
        assert mdm.config.pushdown is True
        assert mdm.result_cache.capacity == 0

    @pytest.mark.parametrize(
        "variable, value",
        [("MDM_FETCH_WORKERS", "0"), ("MDM_IMPACT_GATE", "nope")],
    )
    def test_bad_value_raises_at_construction(self, monkeypatch, variable, value):
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError):
            MDM()


class TestValidation:
    @pytest.mark.parametrize(
        "changes",
        [
            {"max_fetch_workers": 0},
            {"max_fetch_workers": 2.0},
            {"max_fetch_workers": True},
            {"retry_policy": {"attempts": 2}},
            {"optimize": "false"},
            {"pushdown": 1},
            {"validate_plans": None},
            {"impact_gate": "Advisory"},
        ],
    )
    def test_post_init_rejects(self, changes):
        with pytest.raises((TypeError, ValueError)):
            ExecutionConfig(**changes)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            ExecutionConfig().optimize = False  # type: ignore[misc]


class TestConfigureExecution:
    def test_one_swap_per_call(self):
        mdm = MDM(result_cache_size=4, wrapper_cache_size=4)
        before = mdm.config
        mdm.configure_execution(optimize=False, impact_gate="advisory")
        assert mdm.config == replace(before, optimize=False, impact_gate="advisory")
        assert before.optimize is True  # the old value is untouched

    def test_none_keeps_the_current_value(self):
        mdm = MDM()
        before = mdm.config
        mdm.configure_execution(optimize=None, result_cache_size=None)
        assert mdm.config == before

    @pytest.mark.parametrize(
        "changes",
        [
            {"optimize": False, "impact_gate": "nope"},
            {"result_cache_size": 16, "wrapper_cache_size": -1},
            {"result_cache_size": 16, "pushdown": "no"},
            {"wrapper_cache_size": 16, "no_such_field": 1},
        ],
    )
    def test_rejected_call_changes_nothing(self, changes):
        mdm = MDM(result_cache_size=4, wrapper_cache_size=4)
        before = mdm.config
        with pytest.raises((TypeError, ValueError)):
            mdm.configure_execution(**changes)
        assert mdm.config is before
        assert mdm.result_cache.capacity == 4
        assert mdm.wrapper_cache.capacity == 4


def test_design_table_lists_every_knob():
    """DESIGN §9 has one row per ExecutionConfig field and cache size."""
    rows = set(re.findall(r"^\s*\| `(\w+)` \|", DESIGN.read_text(), re.M))
    knobs = {f.name for f in fields(ExecutionConfig)}
    knobs |= {"result_cache_size", "wrapper_cache_size"}
    assert knobs <= rows
