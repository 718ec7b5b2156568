"""Unified runtime options: validation, precedence, session scoping."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.runtime import (
    RuntimeOptions,
    session_defaults,
    set_session_defaults,
    using,
)


class TestRuntimeOptionsValidation:
    def test_neutral_record_is_all_none(self):
        options = RuntimeOptions()
        assert all(value is None for value in
                   dataclasses.asdict(options).values())

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RuntimeOptions().backend = "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            RuntimeOptions(backend="nope")

    def test_unknown_fault_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            RuntimeOptions(fault_backend="nope")

    def test_shards_must_be_positive(self):
        with pytest.raises(ConfigError, match="shards"):
            RuntimeOptions(fault_backend="sharded", shards=0)

    def test_shards_require_sharded_fault_backend(self):
        with pytest.raises(ConfigError, match="sharded"):
            RuntimeOptions(fault_backend="bigint", shards=2)

    def test_stream_budget_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="stream_budget"):
            RuntimeOptions(stream_budget=-1)

    def test_valid_combination_accepted(self):
        options = RuntimeOptions(backend="bigint",
                                 fault_backend="sharded", shards=2,
                                 stream_budget=0, trace="")
        assert options.shards == 2

    def test_replace(self):
        options = RuntimeOptions(stream_budget=7)
        patched = options.replace(backend="numpy")
        assert patched.stream_budget == 7
        assert patched.backend == "numpy"
        assert options.backend is None  # original untouched

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            RuntimeOptions().replace(stream_budget=-3)

    def test_to_flow_kwargs_round_trips(self):
        from repro.core.config import FlowConfig
        options = RuntimeOptions(backend="bigint", stream_budget=5)
        config = FlowConfig(seed=1, **options.to_flow_kwargs())
        assert config.backend == "bigint"
        assert config.stream_budget == 5


class TestSessionDefaults:
    def test_install_and_read_back(self):
        installed = set_session_defaults(RuntimeOptions(stream_budget=9))
        assert session_defaults() is installed
        assert session_defaults().stream_budget == 9

    def test_kwargs_form_patches_current_session(self):
        set_session_defaults(RuntimeOptions(stream_budget=9))
        set_session_defaults(backend="numpy")
        assert session_defaults().stream_budget == 9
        assert session_defaults().backend == "numpy"

    def test_no_args_resets(self):
        set_session_defaults(RuntimeOptions(stream_budget=9))
        set_session_defaults()
        assert session_defaults().stream_budget is None

    def test_using_restores_previous(self):
        set_session_defaults(RuntimeOptions(stream_budget=1))
        with using(stream_budget=5):
            assert session_defaults().stream_budget == 5
        assert session_defaults().stream_budget == 1

    def test_using_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with using(stream_budget=5):
                raise RuntimeError("boom")
        assert session_defaults().stream_budget is None

    def test_using_accepts_options_record(self):
        with using(RuntimeOptions(backend="numpy")):
            assert session_defaults().backend == "numpy"


class TestPrecedence:
    """flag > session > env > built-in default, on every knob."""

    def test_stream_budget(self, monkeypatch):
        from repro.simulation.streaming import resolve_stream_budget
        assert resolve_stream_budget(None) is None
        monkeypatch.setenv("REPRO_STREAM_BUDGET", "100")
        assert resolve_stream_budget(None) == 100
        set_session_defaults(stream_budget=50)
        assert resolve_stream_budget(None) == 50
        assert resolve_stream_budget(7) == 7
        assert resolve_stream_budget(0) is None  # 0 = explicit off

    def test_backend(self, monkeypatch):
        from repro.simulation.backends import default_backend_name
        assert default_backend_name() == "bigint"
        monkeypatch.setenv("REPRO_SIM_BACKEND", "numpy")
        set_session_defaults(backend="bigint")
        assert default_backend_name() == "bigint"  # session > env

    def test_fault_backend_falls_back_to_backend_chain(self,
                                                       monkeypatch):
        from repro.simulation.backends import default_fault_backend_name
        monkeypatch.delenv("REPRO_FAULT_BACKEND", raising=False)
        set_session_defaults(backend="numpy")
        assert default_fault_backend_name() == "numpy"
        set_session_defaults(backend="numpy", fault_backend="bigint")
        assert default_fault_backend_name() == "bigint"

    def test_sharded_shard_count(self, monkeypatch):
        from repro.simulation.backends import ShardedBackend
        monkeypatch.setenv("REPRO_SIM_SHARDS", "7")
        set_session_defaults(fault_backend="sharded", shards=3)
        assert ShardedBackend().configured_shards() == 3  # session > env
        assert ShardedBackend(shards=2).configured_shards() == 2


class TestDeprecatedShims:
    def test_set_default_backend_not_deprecated(self,
                                                recwarn):
        from repro.simulation.backends import set_default_backend
        set_default_backend("numpy")
        assert session_defaults().backend == "numpy"
        deprecations = [w for w in recwarn.list
                        if issubclass(w.category, DeprecationWarning)]
        assert not deprecations


class TestInputErrors:
    """Bad runtime options fail with ConfigError, never a TypeError."""

    @pytest.mark.parametrize("name", ["bogus", "episode_batch",
                                      "fault_plan"])
    def test_unknown_field_lists_valid_names(self, name):
        with pytest.raises(ConfigError, match=name) as excinfo:
            set_session_defaults(**{name: 1})
        message = str(excinfo.value)
        for field in dataclasses.fields(RuntimeOptions):
            assert field.name in message
        assert session_defaults() == RuntimeOptions()

    def test_using_rejects_retired_toggle(self):
        with pytest.raises(ConfigError, match="fault_plan"):
            with using(fault_plan=False):
                pass  # pragma: no cover - never entered
        assert session_defaults() == RuntimeOptions()

    def test_replace_rejects_unknown_field(self):
        with pytest.raises(ConfigError, match="valid: backend"):
            RuntimeOptions().replace(episode_batch=False)

    @pytest.mark.parametrize("field", ["shards", "stream_budget"])
    @pytest.mark.parametrize("value", ["3", 2.0, True])
    def test_non_int_counts_rejected(self, field, value):
        kwargs = {field: value}
        if field == "shards":
            kwargs["fault_backend"] = "sharded"
        with pytest.raises(ConfigError, match=f"{field} must be an int"):
            RuntimeOptions(**kwargs)
