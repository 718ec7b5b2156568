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

#: Two distinct valid chaos specs.
SPEC_A = "seed=1,manifest.write=0.5"
SPEC_B = "seed=2,cache.read=0.1"


class TestRuntimeOptionsValidation:
    def test_neutral_record_is_all_none(self):
        options = RuntimeOptions()
        assert all(value is None for value in
                   dataclasses.asdict(options).values())

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RuntimeOptions().trace = "traces"

    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            RuntimeOptions(backend="bigint")
        with pytest.raises(ConfigError, match="unknown runtime option"):
            RuntimeOptions().replace(backend="bigint")

    def test_stream_budget_field_retired(self):
        """Out-of-core streaming is gone, and with it its knob."""
        assert "stream_budget" not in KNOBS
        with pytest.raises(TypeError, match="stream_budget"):
            RuntimeOptions(stream_budget=1)

    def test_valid_combination_accepted(self):
        options = RuntimeOptions(trace="", chaos="")
        assert options.trace == ""

    def test_replace(self):
        options = RuntimeOptions(trace="")
        patched = options.replace(chaos="seed=1,manifest.write=0.5")
        assert patched.trace == ""
        assert patched.chaos == "seed=1,manifest.write=0.5"
        assert options.chaos is None  # original untouched

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            RuntimeOptions().replace(chaos="manifest.write=lots")


class TestSessionDefaults:
    def test_install_and_read_back(self):
        installed = set_session_defaults(RuntimeOptions(chaos=SPEC_A))
        assert session_defaults() is installed
        assert session_defaults().chaos == SPEC_A

    def test_kwargs_form_patches_current_session(self):
        set_session_defaults(RuntimeOptions(chaos=SPEC_A))
        set_session_defaults(trace="")
        assert session_defaults().chaos == SPEC_A
        assert session_defaults().trace == ""

    def test_no_args_resets(self):
        set_session_defaults(RuntimeOptions(chaos=SPEC_A))
        set_session_defaults()
        assert session_defaults().chaos is None

    def test_using_restores_previous(self):
        set_session_defaults(RuntimeOptions(chaos=SPEC_A))
        with using(chaos=SPEC_B):
            assert session_defaults().chaos == SPEC_B
        assert session_defaults().chaos == SPEC_A

    def test_using_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with using(chaos=SPEC_B):
                raise RuntimeError("boom")
        assert session_defaults().chaos is None

    def test_using_accepts_options_record(self):
        with using(RuntimeOptions(chaos=SPEC_B)):
            assert session_defaults().chaos == SPEC_B

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
        set_session_defaults(chaos=SPEC_A)  # kwargs form still works
        assert session_defaults() == RuntimeOptions(trace=good,
                                                    chaos=SPEC_A)

    def test_failed_sync_rolls_back(self, tmp_path, monkeypatch):
        from repro.obs import trace

        def unwritable(directory, **kwargs):
            raise PermissionError(f"cannot create {directory}")

        set_session_defaults(chaos=SPEC_A)
        monkeypatch.setattr(trace, "enable", unwritable)
        with pytest.raises(PermissionError):
            set_session_defaults(trace=str(tmp_path / "traces"))
        assert session_defaults() == RuntimeOptions(chaos=SPEC_A)
        assert trace.resolve_trace() is None
        assert not trace.tracing_enabled()


#: Per knob: env, session and explicit values (each level differs from
#: the one below it) and a malformed env value.
LEVELS = {
    "trace": ("env", "session", "explicit", "file/sub"),
    "chaos": ("seed=1,manifest.write=0.5", "seed=2,cache.read=0.1",
              "seed=3,manifest.write=1", "manifest.write=lots"),
}


class TestPrecedence:
    """flag > session > env > off, on every knob."""

    def test_stream_budget(self, monkeypatch):
        """The retired streaming knob: no field, and its env var is not
        read — the kept shim resolves to off at every level."""
        from repro.simulation.streaming import resolve_stream_budget
        assert "stream_budget" not in KNOBS
        monkeypatch.setenv("REPRO_STREAM_BUDGET", "lots")
        assert resolve_stream_budget(None) is None
        assert resolve_stream_budget(7) is None
        with pytest.raises(ConfigError,
                           match="stream_budget; valid: trace, chaos"):
            set_session_defaults(stream_budget=50)
        for name in KNOBS:
            resolve(name)  # a stale variable never fails a knob

    def test_backend(self, monkeypatch):
        """The retired backend knob: no field, and its env var is not
        read — the benchmark harness's shims name the one big-int
        engine either way."""
        from repro.simulation.backends import (
            resolve_backend,
            resolve_fault_backend,
        )
        assert "backend" not in KNOBS
        monkeypatch.setenv("REPRO_SIM_BACKEND", "warp")
        assert resolve_backend(None).name == "bigint"
        assert resolve_fault_backend(None).name == "bigint"
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
        assert resolve(name) == env
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
                                      "fault_plan", "backend",
                                      "stream_budget"])
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
        with pytest.raises(ConfigError, match="valid: trace, chaos"):
            RuntimeOptions().replace(episode_batch=False)

    @pytest.mark.parametrize("field, value", [
        pytest.param("trace", 5, id="5-trace"),
        pytest.param("chaos", 7, id="7-chaos"),
    ])
    def test_non_int_counts_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an? "):
            RuntimeOptions(**{field: value})
