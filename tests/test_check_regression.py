"""Tests for the benchmark regression gate script."""

import ast
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
SCRIPT = BENCH_DIR / "check_regression.py"


def _load_gate_module():
    spec = importlib.util.spec_from_file_location("check_regression",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_json(path: Path, speedups: dict[str, float]) -> Path:
    payload = {
        "benchmarks": [
            {"name": name, "extra_info": {"speedup": value}}
            for name, value in speedups.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return path


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        capture_output=True, text=True)


class TestRegressionGate:
    def test_passes_within_tolerance(self, tmp_path):
        current = _bench_json(tmp_path / "cur.json", {"b1": 3.2, "b2": 8.0})
        baseline = _bench_json(tmp_path / "base.json", {"b1": 4.0, "b2": 8.5})
        result = _run(current, baseline, "--max-drop-pct", "25")
        assert result.returncode == 0, result.stderr
        assert "ok" in result.stdout

    def test_fails_on_large_drop(self, tmp_path):
        current = _bench_json(tmp_path / "cur.json", {"b1": 2.0})
        baseline = _bench_json(tmp_path / "base.json", {"b1": 4.0})
        result = _run(current, baseline, "--max-drop-pct", "25")
        assert result.returncode == 1
        assert "FAILED" in result.stderr
        assert "50.0% drop" in result.stderr

    def test_disappeared_speedup_warns_without_failing(self, tmp_path):
        # A renamed/removed benchmark must not wedge the gate (the
        # baseline only advances on green runs).
        current = _bench_json(tmp_path / "cur.json", {})
        baseline = _bench_json(tmp_path / "base.json", {"b1": 4.0})
        result = _run(current, baseline)
        assert result.returncode == 0
        assert "warning" in result.stdout
        assert "renamed or" in result.stdout

    def test_missing_baseline_skips(self, tmp_path):
        current = _bench_json(tmp_path / "cur.json", {"b1": 3.0})
        result = _run(current, tmp_path / "absent.json")
        assert result.returncode == 0
        assert "skipping" in result.stdout

    def test_missing_current_errors(self, tmp_path):
        baseline = _bench_json(tmp_path / "base.json", {"b1": 3.0})
        result = _run(tmp_path / "absent.json", baseline)
        assert result.returncode == 2

    def test_improvements_pass(self, tmp_path):
        current = _bench_json(tmp_path / "cur.json", {"b1": 9.0})
        baseline = _bench_json(tmp_path / "base.json", {"b1": 4.0})
        result = _run(current, baseline)
        assert result.returncode == 0

    def test_suffix_keys_are_diffed(self, tmp_path):
        """A brand-new ``*_speedup`` key is gated without a code change."""
        payload = {"benchmarks": [{
            "name": "b1", "extra_info": {"novel_speedup": 2.0}}]}
        current = tmp_path / "cur.json"
        current.write_text(json.dumps(payload))
        payload["benchmarks"][0]["extra_info"]["novel_speedup"] = 8.0
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(payload))
        result = _run(current, baseline, "--max-drop-pct", "25")
        assert result.returncode == 1
        assert "novel_speedup" in result.stderr


def _recorded_ratio_keys(source: str) -> set[str]:
    """Every string literal in a bench file that names a speedup-style
    ``extra_info`` ratio (f-string placeholders collapse to their
    suffix, which is what the gate matches on)."""
    keys = set()
    for tree_string in ast.walk(ast.parse(source)):
        values = []
        if isinstance(tree_string, ast.Constant) and \
                isinstance(tree_string.value, str):
            values.append(tree_string.value)
        elif isinstance(tree_string, ast.JoinedStr):
            values.append("".join(
                part.value for part in tree_string.values
                if isinstance(part, ast.Constant)))
        for value in values:
            if re.fullmatch(r"\w*(speedup|efficiency)", value):
                keys.add(value)
    return keys


class TestEveryRecordedSpeedupIsGated:
    """The historical bug: bench_perf recorded ``pool_speedup`` and
    ``campaign_speedup`` for two PRs while the gate only knew three
    hard-coded keys — the trajectories landed in the artifact but were
    never diffed.  Now every ratio any bench file records must satisfy
    ``is_guarded_key``."""

    def test_regressed_keys_now_explicit(self):
        gate = _load_gate_module()
        assert "pool_speedup" in gate.SPEEDUP_KEYS
        assert "campaign_speedup" in gate.SPEEDUP_KEYS
        assert "shard_speedup" in gate.SPEEDUP_KEYS

    def test_all_bench_files_recorded_ratios_guarded(self):
        gate = _load_gate_module()
        checked = 0
        for bench in sorted(BENCH_DIR.glob("bench_*.py")):
            for key in _recorded_ratio_keys(bench.read_text()):
                assert gate.is_guarded_key(key), (bench.name, key)
                checked += 1
        # bench_perf's five ratios + bench_scaling's efficiency keys.
        assert checked >= 7

    def test_bench_perf_speedups_listed_explicitly(self):
        """The suffix rule is a safety net, not the list: every
        ``*_speedup`` key ``bench_perf.py`` records is named in
        ``SPEEDUP_KEYS`` (``replay_speedup`` was once gated only by its
        suffix)."""
        gate = _load_gate_module()
        keys = {key for key in _recorded_ratio_keys(
            (BENCH_DIR / "bench_perf.py").read_text())
            if key.endswith("speedup")}
        assert {"speedup", "replay_speedup",
                "cycle_replay_speedup"} <= keys
        assert keys <= set(gate.SPEEDUP_KEYS), \
            sorted(keys - set(gate.SPEEDUP_KEYS))

    def test_load_speedups_picks_up_every_guarded_key(self, tmp_path):
        gate = _load_gate_module()
        extra = {key: 2.0 for key in gate.SPEEDUP_KEYS}
        extra.update({"fresh_efficiency": 1.0, "numpy_ms": 12.0,
                      "gates": 1000})
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(
            {"benchmarks": [{"name": "b", "extra_info": extra}]}))
        loaded = gate.load_speedups(path)
        expected = set(gate.SPEEDUP_KEYS) | {"fresh_efficiency"}
        assert {key for _, key in loaded} == expected
