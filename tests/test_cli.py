"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


class TestList:
    def test_lists_circuits(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out
        assert "embedded" in out
        assert "s9234" in out


class TestFigure2:
    def test_prints_table(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "NAND2 leakage" in out
        assert "408" in out


class TestRun:
    def test_run_s27(self, capsys):
        assert main(["--seed", "1", "run", "s27"]) == 0
        out = capsys.readouterr().out
        assert "improvement vs traditional" in out

    def test_run_flags(self, capsys):
        code = main(["--seed", "1", "run", "s27", "--no-reorder",
                     "--no-directive"])
        assert code == 0


class TestTable1:
    def test_text_format(self, capsys):
        assert main(["--seed", "1", "table1", "s27", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Circuit" in out
        assert "s27" in out
        # one engine, so no engine record: provenance ends the render
        assert "Backends:" not in out
        assert out.rstrip().splitlines()[-1].startswith("Provenance: ")

    def test_csv_format(self, capsys):
        assert main(["--seed", "1", "table1", "s27", "--quiet",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("circuit,")

    def test_markdown_format(self, capsys):
        assert main(["--seed", "1", "table1", "s27", "--quiet",
                     "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| Circuit |")


class TestLibrary:
    def test_prints_cells(self, capsys):
        assert main(["library"]) == 0
        out = capsys.readouterr().out
        assert "NAND2" in out and "leak nA" in out


class TestAblation:
    def test_observability_ablation_on_s27(self, capsys):
        assert main(["--seed", "1", "ablation", "observability",
                     "s27"]) == 0
        out = capsys.readouterr().out
        assert "A1" in out
        assert "directed" in out and "undirected" in out

    def test_ivc_ablation_on_s27(self, capsys):
        assert main(["--seed", "1", "ablation", "ivc", "s27"]) == 0
        out = capsys.readouterr().out
        assert "A4" in out
        assert "trials=" in out


class TestExperimentsMd:
    def test_table1_writes_experiments_md(self, capsys, tmp_path):
        target = tmp_path / "EXP.md"
        assert main(["--seed", "1", "table1", "s27", "--quiet",
                     "--experiments-md", str(target)]) == 0
        capsys.readouterr()
        text = target.read_text()
        assert text.startswith("# EXPERIMENTS")
        assert "s27" in text


class TestEngineFlags:
    def test_retired_backend_name_rejected(self, capsys):
        """``--backend`` is gone: argparse rejects it like any unknown
        flag (exit 2), whatever engine it names."""
        for name in ("numpy", "bigint"):
            with pytest.raises(SystemExit) as excinfo:
                main(["--backend", name, "run", "s27"])
            assert excinfo.value.code == 2
            assert "repro-power: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--fault-backend", "numpy"],
                                       ["--shards", "2"]])
    def test_retired_flags_rejected(self, capsys, flags):
        with pytest.raises(SystemExit) as excinfo:
            main([*flags, "list"])
        assert excinfo.value.code == 2
        assert flags[0] not in capsys.readouterr().err.split("error:")[0]

    def test_retired_env_vars_are_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "numpy")
        monkeypatch.setenv("REPRO_FAULT_BACKEND", "warp")
        monkeypatch.setenv("REPRO_SIM_SHARDS", "abc")
        assert main(["list"]) == 0
        assert capsys.readouterr().err == ""


class TestUnknownCircuit:
    @pytest.mark.parametrize("argv", [
        ["run", "nosuch"],
        ["table1", "nosuch", "--quiet", "--jobs", "1"],
        ["table1", "nosuch", "--quiet", "--jobs", "2"],
        ["table1", "s27", "nosuch", "--quiet", "--jobs", "2"],
        ["ablation", "mux", "nosuch"],
    ])
    def test_one_line_error_exit_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-power: error: unknown ISCAS89 "
                              "circuit 'nosuch'; known: ")
        assert err.count("\n") == 1


class TestArgErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCampaignCommand:
    def test_needs_spec_or_circuits(self, capsys):
        assert main(["campaign"]) == 2
        assert "spec file, --circuits, or --kind figure2" \
            in capsys.readouterr().err

    def test_spec_and_circuits_mutually_exclusive(self, tmp_path,
                                                  capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"circuits": ["s27"]}')
        assert main(["campaign", str(spec), "--circuits", "s27"]) == 2

    def test_inline_campaign_cold_then_cached(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["campaign", "--circuits", "s27",
                     "--cache-dir", cache, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "1 executed, 0 from cache" in out
        assert "Manifest:" in out

        assert main(["campaign", "--circuits", "s27",
                     "--cache-dir", cache, "--quiet",
                     "--expect-all-cached"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 1 from cache" in out

    def test_expect_all_cached_fails_on_cold_run(self, tmp_path,
                                                 capsys):
        assert main(["campaign", "--circuits", "s27",
                     "--cache-dir", str(tmp_path / "c"), "--quiet",
                     "--expect-all-cached"]) == 1
        assert "expected a fully cached" in capsys.readouterr().err

    def test_spec_file_run(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"name": "mini", "circuits": ["s27"],'
            ' "base": {"ivc_trials": 2}}')
        assert main(["campaign", str(spec), "--no-cache",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Campaign 'mini'" in out

    def test_bad_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{nope")
        assert main(["campaign", str(spec)]) == 2

    def test_name_overrides_spec_file_name(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"circuits": ["s27"], "base": {"ivc_trials": 2}}')
        cache = str(tmp_path / "cache")
        assert main(["campaign", str(spec), "--name", "nightly",
                     "--cache-dir", cache, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Campaign 'nightly'" in out
        assert (tmp_path / "cache" / "nightly.manifest.json").is_file()

    def test_bad_jobs_rejected(self, capsys):
        assert main(["campaign", "--circuits", "s27",
                     "--jobs", "0"]) == 2


class TestTable1CampaignFlags:
    def test_jobs_and_cache_dir(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["--seed", "1", "table1", "s27", "--quiet",
                     "--jobs", "1", "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert main(["--seed", "1", "table1", "s27", "--quiet",
                     "--jobs", "1", "--cache-dir", cache]) == 0
        second = capsys.readouterr().out
        assert first == second  # warm re-run renders identically


class TestAblationCampaignFlags:
    def test_ablation_with_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["--seed", "1", "ablation", "observability", "s27",
                "--cache-dir", cache]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0  # second run: pure cache hits
        assert capsys.readouterr().out == first


class TestEpisodeBatchFlag:
    def test_invalid_flag_value_rejected(self):
        """The flag is retired: even its old ``on`` value is rejected."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--episode-batch", "on", "list"])
        assert excinfo.value.code == 2

    def test_retired_env_is_ignored(self, capsys, monkeypatch):
        """A stale ``$REPRO_EPISODE_BATCH`` in the environment is no
        longer read, so even a malformed value cannot fail a run."""
        monkeypatch.setenv("REPRO_EPISODE_BATCH", "maybe")
        assert main(["list"]) == 0
        assert "REPRO_EPISODE_BATCH" not in capsys.readouterr().err


class TestFaultPlanFlag:
    def test_invalid_flag_value_rejected(self):
        """The flag is retired: even its old ``off`` value is
        rejected."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--fault-plan", "off", "list"])
        assert excinfo.value.code == 2

    def test_retired_env_is_ignored(self, capsys, monkeypatch):
        """A stale ``$REPRO_FAULT_PLAN`` in the environment is no longer
        read, so even a malformed value cannot fail a run."""
        monkeypatch.setenv("REPRO_FAULT_PLAN", "maybe")
        assert main(["list"]) == 0
        assert "REPRO_FAULT_PLAN" not in capsys.readouterr().err

    def test_flag_does_not_leak_across_main_calls(self):
        from repro.simulation.streaming import resolve_stream_budget
        assert main(["--stream-budget", "64", "list"]) == 0
        assert resolve_stream_budget(None) == 64  # session default
        assert main(["list"]) == 0  # no flag: main resets the default
        assert resolve_stream_budget(None) is None


class TestCampaignGc:
    def _seed_cache(self, cache_dir, n=3):
        import time

        from repro.campaign.cache import ResultCache
        cache = ResultCache(cache_dir)
        for i in range(n):
            cache.put(cache.key("k", f"c{i}", "h", "f"),
                      {"blob": "x" * 256})
            time.sleep(0.01)
        return cache

    def test_gc_requires_max_mb(self, capsys):
        assert main(["campaign", "gc"]) == 2
        assert "--max-mb" in capsys.readouterr().err

    def test_gc_evicts_to_budget(self, tmp_path, capsys):
        cache = self._seed_cache(str(tmp_path))
        assert main(["campaign", "gc", "--max-mb", "0",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "evicted 3" in out
        assert cache.entries() == []

    def test_gc_noop_under_budget(self, tmp_path, capsys):
        cache = self._seed_cache(str(tmp_path))
        assert main(["campaign", "gc", "--max-mb", "100",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "evicted 0" in capsys.readouterr().out
        assert len(cache.entries()) == 3

    def test_gc_negative_budget_rejected(self, capsys):
        assert main(["campaign", "gc", "--max-mb", "-1"]) == 2
        assert "--max-mb" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-mb", "--max-age-days"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_gc_non_finite_budget_rejected(self, tmp_path, capsys,
                                           flag, value):
        """A NaN or infinite budget is a one-line usage error (exit 2),
        not a traceback or a silent no-op."""
        cache = self._seed_cache(str(tmp_path))
        assert main(["campaign", "gc", flag, value,
                     "--cache-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"repro-power: error: {flag} must be a "
                                f"finite number >= 0, got {value}\n")
        assert captured.out == ""
        assert len(cache.entries()) == 3


class TestCampaignFigure2Kind:
    def test_inline_figure2_campaign(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["campaign", "--kind", "figure2",
                     "--cache-dir", cache_dir, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "1 job(s)" in out and "1 executed" in out
        # warm re-run: everything cached
        assert main(["campaign", "--kind", "figure2",
                     "--cache-dir", cache_dir, "--quiet",
                     "--expect-all-cached"]) == 0
        assert "1 from cache" in capsys.readouterr().out

    def test_spec_file_kind_figure2(self, tmp_path, capsys):
        import json
        spec = tmp_path / "fig2.json"
        spec.write_text(json.dumps({"kind": "figure2", "name": "f2"}))
        assert main(["campaign", str(spec), "--no-cache",
                     "--quiet"]) == 0
        assert "'f2'" in capsys.readouterr().out

    def test_max_mb_outside_gc_rejected(self, capsys):
        assert main(["campaign", "--circuits", "s27",
                     "--max-mb", "10"]) == 2
        assert "campaign gc" in capsys.readouterr().err

    def test_gc_rejects_campaign_flags(self, tmp_path, capsys):
        assert main(["campaign", "gc", "--max-mb", "1",
                     "--circuits", "s27", "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert "--circuits" in err and "--jobs" in err

    def test_flag_does_not_leak_across_main_calls(self):
        """The autouse conftest fixture must clear the session default
        main() installs, or the suite becomes order-dependent."""
        from repro.runtime import session_defaults
        assert main(["--stream-budget", "5", "list"]) == 0
        assert session_defaults().stream_budget == 5  # session default
        assert main(["list"]) == 0  # no flag: main resets the default
        assert session_defaults().stream_budget is None


class TestCampaignGcAge:
    def _age_cache(self, cache_dir):
        import os
        import time

        from repro.campaign.cache import ResultCache
        cache = ResultCache(cache_dir)
        old_key = cache.key("k", "old", "h", "f")
        cache.put(old_key, {"blob": "x"})
        stale = time.time() - 10 * 86400.0
        os.utime(cache.path(old_key), (stale, stale))
        cache.put(cache.key("k", "new", "h", "f"), {"blob": "y"})
        return cache

    def test_age_evicts_only_stale_entries(self, tmp_path, capsys):
        cache = self._age_cache(str(tmp_path))
        assert main(["campaign", "gc", "--max-age-days", "5",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "evicted 1" in capsys.readouterr().out
        assert len(cache.entries()) == 1

    def test_age_and_size_combine(self, tmp_path, capsys):
        cache = self._age_cache(str(tmp_path))
        assert main(["campaign", "gc", "--max-age-days", "5",
                     "--max-mb", "0", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "evicted 2" in capsys.readouterr().out
        assert cache.entries() == []

    def test_negative_age_rejected(self, capsys):
        assert main(["campaign", "gc", "--max-age-days", "-1"]) == 2
        assert "--max-age-days" in capsys.readouterr().err

    def test_age_outside_gc_rejected(self, capsys):
        assert main(["campaign", "--circuits", "s27",
                     "--max-age-days", "5"]) == 2
        assert "campaign gc" in capsys.readouterr().err


class TestRetiredQueueSurface:
    """The filesystem work queue is gone: its commands, flags and chaos
    sites are rejected with one error line, and nothing is created."""

    #: Spelled in parts: the retired site names appear nowhere else in
    #: the source tree.
    RETIRED_SITES = [".".join(parts) for parts in (
        ("queue", "write"), ("queue", "rename"), ("queue", "heartbeat"),
        ("queue", "requeue"), ("worker", "kill"))]

    @pytest.mark.parametrize("argv", [
        ["worker", "{dir}"],
        ["campaign", "--circuits", "s27", "--enqueue", "{dir}"],
        ["campaign", "--circuits", "s27", "--lease-ttl", "5"],
        ["campaign", "retry-failed", "{dir}"],
        ["serve", "--queue-dir", "{dir}"],
    ])
    def test_retired_commands_rejected(self, tmp_path, capsys, argv):
        queue_dir = tmp_path / "q"
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(dir=queue_dir) for arg in argv])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith("repro-power: error:")
        assert not queue_dir.exists()

    @pytest.mark.parametrize("site", RETIRED_SITES)
    def test_retired_chaos_sites_rejected(self, capsys, site):
        assert main(["--chaos", f"seed=1,{site}=0.2", "list"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-power: error:")
        assert "matches no known site" in err
        assert err.count("\n") == 1


class TestServeCommand:
    def test_serve_validates_base_json(self, capsys):
        assert main(["serve", "--base", "notjson"]) == 2
        assert "--base" in capsys.readouterr().err
        assert main(["serve", "--base", "[1]"]) == 2
        assert "--base" in capsys.readouterr().err

    def test_serve_validates_port(self, capsys):
        assert main(["serve", "--port", "0"]) == 2
        assert "--port" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["nan", "inf", "0"])
    def test_serve_rejects_bad_request_timeout(self, capsys, budget):
        assert main(["serve", "--request-timeout", budget]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-power: error: request_timeout_s")


class TestBrokenPipe:
    def test_closed_stdout_exits_without_traceback(self):
        """A reader that is already gone (``list | head -0``) must not
        turn into a ``BrokenPipeError`` traceback."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        read_fd, write_fd = os.pipe()
        os.close(read_fd)  # every write to the pipe now fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "list"],
                stdout=write_fd, stderr=subprocess.PIPE, env=env,
                timeout=120)
        finally:
            os.close(write_fd)
        assert proc.stderr == b""
        assert proc.returncode == 1
