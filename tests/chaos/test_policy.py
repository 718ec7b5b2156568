"""Chaos policy: spec grammar, precedence, determinism, primitives."""

import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.chaos as chaos
from repro import runtime
from repro.chaos import ChaosPolicy
from repro.errors import ChaosError, ConfigError
from repro.obs.metrics import get_registry


class TestSpecGrammar:
    def test_parse_sites_knobs_and_patterns(self):
        policy = ChaosPolicy.parse(
            "seed=7,pool.task.*=0.2,cache.write=0.5,slow_s=0.01,"
            "hang_s=2")
        assert policy.seed == 7
        assert policy.rate("pool.task.kill") == 0.2
        assert policy.rate("pool.task.hang") == 0.2
        assert policy.rate("cache.write") == 0.5
        assert policy.rate("cache.read") == 0.0
        assert policy.slow_s == 0.01
        assert policy.hang_s == 2.0

    def test_later_entries_override_earlier_per_site(self):
        policy = ChaosPolicy.parse("pool.task.*=0.2,pool.task.kill=0.9")
        assert policy.rate("pool.task.kill") == 0.9
        assert policy.rate("pool.task.hang") == 0.2

    def test_to_spec_round_trips(self):
        policy = ChaosPolicy.parse("seed=3,pool.task.kill=0.25")
        assert ChaosPolicy.parse(policy.to_spec()) == policy

    @pytest.mark.parametrize("spec, fragment", [
        ("", "empty chaos spec"),
        ("bogus", "expected key=value"),
        ("nosuch.site=0.5", "matches no known site"),
        ("manifest.write=1.5", "must be in [0, 1]"),
        ("manifest.write=lots", "must be a number"),
        ("seed=x", "must be a number"),
    ])
    def test_bad_specs_raise(self, spec, fragment):
        with pytest.raises(ChaosError, match=None) as excinfo:
            ChaosPolicy.parse(spec)
        assert fragment in str(excinfo.value)

    def test_chaos_error_is_a_config_error(self):
        with pytest.raises(ConfigError):
            ChaosPolicy.parse("junk")

    def test_runtime_options_validate_eagerly(self):
        with pytest.raises(ConfigError):
            runtime.RuntimeOptions(chaos="bogus")


class TestResolutionPrecedence:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert chaos.resolve_chaos() is None
        assert not chaos.chaos_enabled()

    def test_env_resolves(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "seed=1,manifest.write=0.5")
        assert chaos.resolve_chaos() == "seed=1,manifest.write=0.5"

    def test_session_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "seed=1,manifest.write=0.5")
        with runtime.using(chaos="seed=2,cache.read=0.1"):
            assert chaos.resolve_chaos() == "seed=2,cache.read=0.1"

    def test_argument_beats_session(self, monkeypatch):
        with runtime.using(chaos="seed=2,cache.read=0.1"):
            assert chaos.resolve_chaos("seed=3,manifest.write=1") == \
                "seed=3,manifest.write=1"

    def test_empty_string_pins_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "seed=1,manifest.write=0.5")
        with runtime.using(chaos=""):
            assert chaos.resolve_chaos() is None

    def test_using_scopes_install_and_uninstall(self):
        assert not chaos.chaos_enabled()
        with runtime.using(chaos="seed=5,manifest.write=0.5"):
            assert chaos.chaos_enabled()
            assert chaos.active_policy().seed == 5
        assert not chaos.chaos_enabled()

    def test_explicit_enable_survives_session_reset(self):
        chaos.enable("seed=9,manifest.write=0.5")
        runtime.set_session_defaults(runtime.RuntimeOptions())
        assert chaos.chaos_enabled()
        assert chaos.active_policy().seed == 9

    def test_resync_of_unchanged_spec_preserves_streams(self):
        with runtime.using(chaos="seed=1,manifest.write=0.5"):
            for _ in range(20):
                try:
                    chaos.point("manifest.write")
                except OSError:
                    pass
            before = chaos.injection_log()
            # An unrelated session patch must not reset the streams.
            runtime.set_session_defaults(trace=None)
            assert chaos.injection_log() == before


class TestDeterminism:
    def drive(self, spec):
        chaos.enable(spec)
        for _ in range(200):
            try:
                chaos.point("manifest.write")
            except OSError:
                pass
            chaos.mangle("cache.read", b"payload-bytes")
        return chaos.injection_log()

    def test_same_seed_same_injection_sequence(self):
        spec = "seed=11,manifest.write=0.3,cache.read=0.2"
        assert self.drive(spec) == self.drive(spec)

    def test_different_seed_different_sequence(self):
        a = self.drive("seed=11,manifest.write=0.3,cache.read=0.2")
        b = self.drive("seed=12,manifest.write=0.3,cache.read=0.2")
        assert a != b

    def test_sites_draw_independent_streams(self):
        log = self.drive("seed=11,manifest.write=0.3,cache.read=0.2")
        sites = {site for site, _action in log}
        assert sites == {"manifest.write", "cache.read"}

    def test_rescope_is_deterministic_but_decorrelated(self):
        def draws(scope):
            chaos.enable("seed=4,manifest.write=0.5")
            chaos.rescope(scope)
            fired = []
            for _ in range(64):
                try:
                    chaos.point("manifest.write")
                    fired.append(False)
                except OSError:
                    fired.append(True)
            return fired

        assert draws("w0") == draws("w0")
        assert draws("w0") != draws("w1")

    def test_rescope_without_policy_is_a_noop(self):
        chaos.rescope("anything")
        assert not chaos.chaos_enabled()


class TestPrimitives:
    def test_disabled_primitives_are_noops(self):
        chaos.point("manifest.write")
        assert chaos.mangle("cache.read", b"abc") == b"abc"
        assert chaos.delay("service.slow") == 0.0
        assert not chaos.fires("service.reset")

    def test_point_raises_tagged_oserror_at_rate_one(self):
        chaos.enable("seed=1,manifest.write=1")
        with pytest.raises(OSError) as excinfo:
            chaos.point("manifest.write")
        assert "chaos[manifest.write]" in str(excinfo.value)
        assert excinfo.value.errno in (errno.EIO, errno.ENOSPC)

    def test_unknown_site_raises_even_when_enabled(self):
        chaos.enable("seed=1,manifest.write=1")
        with pytest.raises(ChaosError, match="unknown chaos site"):
            chaos.point("not.a.site")

    def test_mangle_corrupts_at_rate_one(self):
        chaos.enable("seed=1,cache.write=1")
        data = b"x" * 64
        assert chaos.mangle("cache.write", data) != data

    def test_delay_returns_slow_s_at_rate_one(self):
        chaos.enable("seed=1,service.slow=1,slow_s=0.125")
        assert chaos.delay("service.slow") == 0.125

    def test_zero_rate_site_never_fires(self):
        chaos.enable("seed=1,manifest.write=0")
        for _ in range(100):
            chaos.point("manifest.write")
        assert chaos.injection_log() == []

    def test_fired_injections_counted(self):
        chaos.enable("seed=1,manifest.write=1")
        for _ in range(3):
            with pytest.raises(OSError):
                chaos.point("manifest.write")
        metric = get_registry().counter(
            "repro_chaos_injections_total",
            "Chaos faults injected, by site.",
            labels={"site": "manifest.write"})
        assert metric.value == 3

    def test_kill_site_exits_the_process_with_137(self, tmp_path):
        script = (
            "import repro.chaos as chaos\n"
            "chaos.enable('seed=1,pool.task.kill=1')\n"
            "chaos.point('pool.task.kill')\n"
            "print('unreachable')\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == chaos.KILL_EXIT_CODE
        assert "unreachable" not in proc.stdout
