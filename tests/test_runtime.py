"""Unified runtime options: validation, precedence, session scoping."""

import dataclasses
import re

import pytest

from repro.errors import ConfigError, RuntimeOptionError, SimulationError
from repro.runtime import (
    KNOBS,
    RuntimeOptions,
    resolve,
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
            RuntimeOptions().stream_budget = 5

    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            RuntimeOptions(backend="bigint")
        with pytest.raises(ConfigError, match="unknown runtime option"):
            RuntimeOptions().replace(backend="bigint")

    def test_stream_budget_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="stream_budget"):
            RuntimeOptions(stream_budget=-1)

    def test_valid_combination_accepted(self):
        options = RuntimeOptions(stream_budget=0, trace="", chaos="")
        assert options.stream_budget == 0

    def test_replace(self):
        options = RuntimeOptions(stream_budget=7)
        patched = options.replace(chaos="seed=1,queue.write=0.5")
        assert patched.stream_budget == 7
        assert patched.chaos == "seed=1,queue.write=0.5"
        assert options.chaos is None  # original untouched

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            RuntimeOptions().replace(stream_budget=-3)


class TestSessionDefaults:
    def test_install_and_read_back(self):
        installed = set_session_defaults(RuntimeOptions(stream_budget=9))
        assert session_defaults() is installed
        assert session_defaults().stream_budget == 9

    def test_kwargs_form_patches_current_session(self):
        set_session_defaults(RuntimeOptions(stream_budget=9))
        set_session_defaults(chaos="seed=1,queue.write=0.5")
        assert session_defaults().stream_budget == 9
        assert session_defaults().chaos == "seed=1,queue.write=0.5"

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
        with using(RuntimeOptions(stream_budget=4)):
            assert session_defaults().stream_budget == 4

    def test_bad_trace_directory_keeps_previous_session(self, tmp_path):
        from repro.obs.trace import resolve_trace
        good = str(tmp_path / "traces")
        blocker = tmp_path / "file"
        blocker.write_text("")
        set_session_defaults(trace=good)
        with pytest.raises(ConfigError, match=re.escape("$REPRO_TRACE")):
            set_session_defaults(trace=str(blocker / "sub"))
        assert session_defaults().trace == good
        assert resolve_trace() == good
        set_session_defaults(stream_budget=5)  # kwargs form still works
        assert session_defaults() == RuntimeOptions(trace=good,
                                                    stream_budget=5)

    def test_failed_sync_rolls_back(self, tmp_path, monkeypatch):
        from repro.obs import trace

        def unwritable(directory, **kwargs):
            raise PermissionError(f"cannot create {directory}")

        set_session_defaults(stream_budget=3)
        monkeypatch.setattr(trace, "enable", unwritable)
        with pytest.raises(PermissionError):
            set_session_defaults(trace=str(tmp_path / "traces"))
        assert session_defaults() == RuntimeOptions(stream_budget=3)
        assert trace.resolve_trace() is None
        assert not trace.tracing_enabled()


#: Per knob: env, session and explicit values (each level differs from
#: the one below it) and a malformed env value.
LEVELS = {
    "stream_budget": ("100", 50, 7, "lots"),
    "trace": ("env", "session", "explicit", "file/sub"),
    "chaos": ("seed=1,queue.write=0.5", "seed=2,cache.read=0.1",
              "seed=3,queue.write=1", "queue.write=lots"),
}


class TestPrecedence:
    """flag > session > env > off, on every knob."""

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
        """The retired backend knob: no field, and its env var is not
        read — the engine is the one big-int backend either way."""
        from repro.simulation.backends import BigIntBackend, resolve_backend
        assert "backend" not in KNOBS
        monkeypatch.setenv("REPRO_SIM_BACKEND", "warp")
        assert isinstance(resolve_backend(None), BigIntBackend)
        for name in KNOBS:
            resolve(name)  # a stale variable never fails a knob

    @pytest.mark.parametrize("name", list(KNOBS))
    def test_every_knob_resolves_with_one_precedence(self, name,
                                                     monkeypatch, tmp_path):
        """explicit > session > env > off; empty env = unset; a
        malformed env value names its variable."""
        knob = KNOBS[name]
        assert name in {f.name for f in dataclasses.fields(RuntimeOptions)}
        env, session, explicit, malformed = LEVELS[name]
        if name == "trace":
            (tmp_path / "file").write_text("")
            env, session, explicit, malformed = (
                str(tmp_path / leaf)
                for leaf in (env, session, explicit, malformed))
        monkeypatch.delenv(knob.env, raising=False)
        assert resolve(name) is None
        monkeypatch.setenv(knob.env, "")
        assert resolve(name) is None
        monkeypatch.setenv(knob.env, env)
        assert resolve(name) == knob.type(env)
        with using(**{name: session}):
            assert resolve(name) == session
            assert resolve(name, explicit) == explicit
        monkeypatch.setenv(knob.env, malformed)
        with pytest.raises(RuntimeOptionError,
                           match=re.escape(f"${knob.env}")) as excinfo:
            resolve(name)
        assert isinstance(excinfo.value, ConfigError)
        assert isinstance(excinfo.value, SimulationError)
        assert knob.flag in str(excinfo.value)


class TestInputErrors:
    """Bad runtime options fail with ConfigError, never a TypeError."""

    @pytest.mark.parametrize("name", ["bogus", "episode_batch",
                                      "fault_plan", "backend"])
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
        with pytest.raises(ConfigError, match="valid: stream_budget"):
            RuntimeOptions().replace(episode_batch=False)

    @pytest.mark.parametrize("field, value", [
        *(pytest.param(field, value, id=f"{value}-{field}")
          for value in ("3", 2.0, True)
          for field in ("stream_budget",)),
        pytest.param("trace", 5, id="5-trace"),
        pytest.param("chaos", 7, id="7-chaos"),
    ])
    def test_non_int_counts_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an? "):
            RuntimeOptions(**{field: value})
