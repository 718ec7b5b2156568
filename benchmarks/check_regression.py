"""Benchmark regression gate: diff recorded speedups against a baseline.

Compares the ``speedup``-style ``extra_info`` entries of a fresh
pytest-benchmark JSON against the previous run's artifact and fails when
any recorded speedup dropped by more than the allowed percentage.  Raw
timings are deliberately *not* compared — shared CI runners are too
noisy for that — but a speedup *ratio* (say, the product replay against
its frozen oracle) is measured on the same machine in the same process,
so a large drop there is a real regression, not noise.

Usage (exit codes: 0 ok / baseline missing, 1 regression, 2 bad input)::

    python benchmarks/check_regression.py BENCH_ci.json baseline.json \
        --max-drop-pct 25
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: ``extra_info`` keys treated as guarded speedup ratios.  Listed
#: explicitly so renames are deliberate; :func:`is_guarded_key` also
#: guards every ``*_speedup`` / ``*_efficiency`` suffix so a newly
#: recorded ratio can never silently bypass the gate again (the
#: historical bug: ``pool_speedup``/``campaign_speedup`` were recorded
#: for two PRs without ever being diffed).
SPEEDUP_KEYS = ("speedup", "episode_batch_speedup",
                "fault_episode_speedup", "replay_speedup",
                "cycle_replay_speedup", "pool_speedup",
                "campaign_speedup", "shard_speedup",
                "caps_speedup", "scaling_efficiency")


def is_guarded_key(key: str) -> bool:
    """Whether an ``extra_info`` key is a gated machine-relative ratio."""
    return (key in SPEEDUP_KEYS or key.endswith("_speedup")
            or key.endswith("_efficiency"))


def load_speedups(path: Path) -> dict[tuple[str, str], float]:
    """``{(benchmark name, key): ratio}`` for every guarded entry."""
    with path.open() as handle:
        data = json.load(handle)
    speedups: dict[tuple[str, str], float] = {}
    for bench in data.get("benchmarks", []):
        extra = bench.get("extra_info", {})
        for key, value in extra.items():
            if is_guarded_key(key) and \
                    isinstance(value, (int, float)) and value > 0:
                speedups[(bench.get("name", "?"), key)] = float(value)
    return speedups


def compare(current: dict[tuple[str, str], float],
            baseline: dict[tuple[str, str], float],
            max_drop_pct: float) -> tuple[list[str], list[str]]:
    """``(problems, warnings)`` — only problems fail the gate.

    A benchmark present in the baseline but absent from the current run
    is a *warning*, not a failure: renaming or retiring a benchmark must
    not wedge the gate (the baseline only advances on green runs, so a
    hard failure here would repeat forever).  Speedup floors inside the
    bench suite still guard absolute performance.
    """
    problems: list[str] = []
    warnings: list[str] = []
    for key, base_value in sorted(baseline.items()):
        now = current.get(key)
        name = f"{key[0]}:{key[1]}"
        if now is None:
            warnings.append(f"{name}: not in the current run "
                            f"(baseline {base_value:.2f}x) — renamed or "
                            f"removed benchmark?")
            continue
        drop_pct = (base_value - now) / base_value * 100.0
        if drop_pct > max_drop_pct:
            problems.append(
                f"{name}: {base_value:.2f}x -> {now:.2f}x "
                f"({drop_pct:.1f}% drop > {max_drop_pct:.0f}% allowed)")
    return problems, warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path,
                        help="bench JSON of this run")
    parser.add_argument("baseline", type=Path,
                        help="bench JSON of the previous run (may be "
                             "missing: gate passes with a notice)")
    parser.add_argument("--max-drop-pct", type=float, default=25.0,
                        help="largest tolerated speedup drop (percent)")
    args = parser.parse_args(argv)

    if not args.current.is_file():
        print(f"regression gate: current bench JSON {args.current} "
              f"not found", file=sys.stderr)
        return 2
    if not args.baseline.is_file():
        print(f"regression gate: no baseline at {args.baseline}; "
              f"skipping (first run on this branch?)")
        return 0

    current = load_speedups(args.current)
    baseline = load_speedups(args.baseline)
    if not baseline:
        print("regression gate: baseline has no recorded speedups; "
              "skipping")
        return 0

    problems, warnings = compare(current, baseline, args.max_drop_pct)
    for key, value in sorted(current.items()):
        base = baseline.get(key)
        base_text = f"{base:.2f}x" if base is not None else "n/a"
        print(f"  {key[0]}:{key[1]}: {value:.2f}x (baseline {base_text})")
    for warning in warnings:
        print(f"  warning: {warning}")
    if problems:
        print("regression gate: FAILED", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"regression gate: ok ({len(baseline)} speedup(s) within "
          f"{args.max_drop_pct:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
