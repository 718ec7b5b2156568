#!/usr/bin/env python3
"""The repository benchmark: one command, every metric, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload table1_cold --seed 1 \
        --seconds 30 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` (names, units,
bounds); ``perfbench/README.md`` defines every metric per workload.
Each repetition runs in a fresh interpreter (``child.py``) with every
``REPRO_*`` variable cleared.  Repetitions repeat until ``--seconds``
are used up; the end-to-end metrics are medians over them.  With
``--trace 1`` a single traced repetition reports the per-layer metrics
instead, and its spans are written under ``.perfbench/reports/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
WORKLOADS = ("table1_cold", "grade_large", "serve_warm")

#: Set-up samples per run; set-up-only probes top the repetitions up.
MIN_SETUPS = 5
#: Whole-command budget: every child is killed before it runs out.
TIME_LIMIT_S = 170.0
#: Share of traced flow time the wrapped phases may leave unattributed.
MAX_UNATTRIBUTED = 0.05


def tail(values: list[float]) -> float:
    """The highest nearest-rank percentile, up to p99, that leaves at
    least ten samples beyond it; the median below twenty samples."""
    ordered = sorted(values)
    q = max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / len(ordered))))
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Runner:
    """Starts repetitions of one workload as child interpreters."""

    def __init__(self, root: Path, args: argparse.Namespace, work: Path,
                 reports: Path):
        self.root = root
        self.args = args
        self.work = work
        self.reports = reports
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = {name: value for name, value in os.environ.items()
                    if not name.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self._count = 0

    def child(self, phase: str = "run", trace: bool = False
              ) -> dict[str, Any]:
        """Run one child to completion; returns its record."""
        self._count += 1
        out = self.work / f"{phase}-{self._count}.json"
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.args.workload, "--phase", phase,
            "--seed", str(self.args.seed), "--trace", str(int(trace)),
            "--work-dir", str(self.work), "--out", str(out)]
        if trace:
            command += ["--spans", str(self.spans_path)]
        command += ["--spawn-t", repr(time.monotonic())]
        # A session of its own, so a timeout also reaps pool workers.
        proc = subprocess.Popen(command, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, stderr = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            return {"error": f"{phase} repetition timed out"}
        if proc.returncode != 0 or not out.is_file():
            return {"error": f"{phase} repetition exited "
                             f"{proc.returncode}: {stderr[-2000:]}"}
        with open(out, encoding="utf-8") as handle:
            record = json.load(handle)
        if "error" in record:
            sys.stderr.write(record["error"])
        return record

    @property
    def spans_path(self) -> Path:
        return self.reports / (f"{self.args.workload}-seed"
                               f"{self.args.seed}-spans.json")

    def left(self) -> float:
        return self.deadline - time.monotonic()


def run_repetitions(runner: Runner, seconds: float
                    ) -> tuple[list[dict], list[float]]:
    """Repetitions until ``seconds`` are used, then set-up probes."""
    budget_end = time.monotonic() + seconds
    reps: list[dict] = []
    longest = 0.0
    while True:
        started = time.monotonic()
        reps.append(runner.child())
        longest = max(longest, time.monotonic() - started)
        if "error" in reps[-1] \
                or time.monotonic() + longest > budget_end \
                or longest > runner.left() - 10.0:
            break
    setups = [r["setup_s"] for r in reps if r.get("setup_s") is not None]
    probe_s = 0.0
    while len(setups) < MIN_SETUPS and probe_s < runner.left() - 10.0:
        started = time.monotonic()
        probe = runner.child("setup")
        probe_s = max(probe_s, time.monotonic() - started)
        if probe.get("setup_s") is None:
            break
        setups.append(probe["setup_s"])
    return reps, setups


def end_to_end(reps: list[dict], setups: list[float]) -> dict[str, float]:
    items = [value for rep in reps for value in rep["items_ms"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "serial_s": statistics.median(rep["serial_s"] for rep in reps),
        "p50_ms": statistics.median(items),
        "tail_ms": statistics.median(tail(rep["items_ms"])
                                     for rep in reps),
        "throughput": statistics.median(rep["n_items"] / rep["wall_s"]
                                        for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                         for rep in reps),
        **reps[0]["quality"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so a running child is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file() \
            or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root (needs src/repro "
              "and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    reports = root / ".perfbench" / "reports"
    work = root / ".perfbench" / f"work-{os.getpid()}"
    reports.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    started = time.monotonic()
    try:
        runner = Runner(root, args, work, reports)
        fill = runner.child("fill") if args.workload == "serve_warm" \
            else {}
        if "error" in fill:
            reps, setups = [fill], []
        elif args.trace:
            reps = [runner.child(trace=True)]
            setups = [reps[0]["setup_s"]] if "error" not in reps[0] \
                else []
        else:
            reps, setups = run_repetitions(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [rep for rep in reps if "error" not in rep]
    if not good:
        print("perfbench: every repetition failed", file=sys.stderr)
        return 1
    checks = [check for rep in good for check in rep.get("checks", [])]
    per_rep = good[0]["n_items"]
    attempted = sum(rep["n_items"] for rep in good) \
        + per_rep * (len(reps) - len(good))
    failed = sum(rep["failed"] for rep in good) \
        + per_rep * (len(reps) - len(good))
    for rep in good[1:]:
        if rep["outputs"] != good[0]["outputs"]:
            failed += rep["n_items"]
            checks.append("outputs differ between repetitions")
    if len(good) < len(reps):
        checks.append(f"{len(reps) - len(good)} repetition(s) failed")

    if args.trace:
        layer = good[0]["layers"]
        values = {name: float(layer.get(name, 0.0)) for name in units}
        if args.workload == "table1_cold":
            share = layer["flow.unattributed_s"] / good[0]["traced_serial_s"]
            if share >= MAX_UNATTRIBUTED:
                failed += 1
                checks.append(f"wrapped phases leave {share:.1%} of flow "
                              f"time unattributed")
    else:
        values = end_to_end(good, setups)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f" repetitions={len(reps)} setups={len(setups)}"
          f" elapsed={time.monotonic() - started:.1f}s")
    print("runtime: " + " ".join(
        f"{key}={value}" for key, value in good[0]["runtime"].items()))
    print("provenance: " + " ".join(
        f"{key}={value}" for key, value in good[0]["provenance"].items()))
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:>14.6g} {unit}")
    print(f"  {'failed_ratio':40s} {failed / attempted:>14.6g} ratio"
          f" ({failed}/{attempted})")
    for check in checks:
        print(f"check failed: {check}")

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "metrics": values, "attempted": attempted, "failed": failed,
              "checks": checks, "setups": setups, "repetitions": reps}
    report_path = reports / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    print(json.dumps({
        "correct": failed == 0 and not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
