"""Scaling-curve bench: time vs gates (ROADMAP item 3).

Generates synthetic circuits at a ladder of gate budgets with
:func:`repro.benchgen.generate_scaled`, then times the three
long-pole operations per size on the big-int engine:

* circuit generation (once per size; pins the de-quadraticized
  generator),
* whole-test-set power replay (``evaluate_scan_power`` over a compiled
  :class:`EpisodePlan`),
* whole-test-set fault detection on a sampled fault universe
  (one ``FaultSimSession`` call over the whole pattern set).

Output is a pytest-benchmark-compatible JSON (``{"benchmarks": [...]}``,
one ``scaling_bigint_g<N>`` entry per size plus one ``scaling_bigint``
summary entry) that ``check_regression.py`` can diff: the
``*_efficiency`` ratios (per-gate time at the smallest size over
per-gate time at the largest — 1.0 is perfectly linear scaling, below 1
is superlinear blowup) are guarded keys; the fitted log-log exponents
ride along as unguarded ``extra_info``.

Usage::

    python benchmarks/bench_scaling.py --gates 10000,100000 \
        -o scaling.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.atpg.faults import all_faults  # noqa: E402
from repro.benchgen import generate_scaled  # noqa: E402
from repro.power.scanpower import evaluate_scan_power  # noqa: E402
from repro.scan.testview import ScanDesign, TestVector  # noqa: E402
from repro.simulation.bitsim import random_input_words  # noqa: E402
from repro.simulation.fault_episode import FaultSimSession  # noqa: E402
from repro.techmap.mapper import technology_map  # noqa: E402
from repro.utils.rng import make_rng  # noqa: E402

#: The engine every rung runs on; it names the records.
ENGINE = "bigint"
DEFAULT_GATES = (1_000, 10_000, 100_000)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _time_once(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _best(repeats: int, fn) -> tuple[float, object]:
    best_s, result = _time_once(fn)
    for _ in range(repeats - 1):
        elapsed, result = _time_once(fn)
        best_s = min(best_s, elapsed)
    return best_s, result


def _vectors(design: ScanDesign, n_vectors: int, seed: int
             ) -> list[TestVector]:
    gen = make_rng(seed)
    return [
        TestVector(
            pi_values={pi: int(gen.integers(2))
                       for pi in design.circuit.inputs},
            scan_state=tuple(int(gen.integers(2))
                             for _ in range(design.chain.length)))
        for _ in range(n_vectors)
    ]


def _sample_faults(circuit, n_sample: int, seed: int):
    universe = all_faults(circuit)
    if len(universe) <= n_sample:
        return universe
    gen = make_rng(seed)
    picks = sorted(gen.choice(len(universe), size=n_sample,
                              replace=False).tolist())
    return [universe[i] for i in picks]


def bench_size(n_gates: int, args: argparse.Namespace) -> dict:
    """One ladder rung: generate once, time replay + detection."""
    gen_s, raw = _time_once(
        lambda: generate_scaled(n_gates, seed=args.seed,
                                n_dffs=args.dffs))
    map_s, circuit = _time_once(lambda: technology_map(raw))
    design = ScanDesign.full_scan(circuit)
    vectors = _vectors(design, args.vectors, args.seed)
    faults = _sample_faults(circuit, args.faults, args.seed)
    words = random_input_words(circuit, args.patterns,
                               make_rng(args.seed + 1))

    replay_s, report = _best(args.repeats, lambda: evaluate_scan_power(
        design, vectors))
    session = FaultSimSession(circuit)
    fault_s, result = _best(args.repeats, lambda: session.simulate(
        faults, words, args.patterns, drop=False))
    print(f"  replay {replay_s * 1e3:9.1f} ms   "
          f"fault {fault_s * 1e3:9.1f} ms   "
          f"({result.n_detected}/{len(faults)} detected)")
    return {
        "name": f"scaling_{ENGINE}_g{n_gates}",
        "stats": {"mean": replay_s + fault_s},
        "extra_info": {
            "engine": ENGINE,
            "gates": n_gates,
            "mapped_gates": len(circuit.combinational_gates()),
            "patterns": args.patterns,
            "n_vectors": args.vectors,
            "n_cycles": report.n_cycles,
            "faults_sampled": len(faults),
            "gen_s": round(gen_s, 4),
            "map_s": round(map_s, 4),
            "replay_s": round(replay_s, 4),
            "fault_s": round(fault_s, 4),
        },
    }


def _fit_exponent(sizes: list[int], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(gates)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    denom = sum((x - mean_x) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y)
               for x, y in zip(xs, ys)) / denom


def summarize(rungs: list[dict]) -> dict | None:
    """Curve summary: guarded efficiencies + fitted exponents."""
    if len(rungs) < 2:
        return None
    rungs = sorted(rungs, key=lambda r: r["extra_info"]["gates"])
    sizes = [r["extra_info"]["gates"] for r in rungs]
    extra: dict = {"engine": ENGINE, "gates_ladder": sizes}
    for metric in ("replay_s", "fault_s"):
        times = [r["extra_info"][metric] for r in rungs]
        per_gate = [t / s for t, s in zip(times, sizes)]
        short = metric[:-2]  # "replay" / "fault"
        # Per-gate time at the smallest size over the largest: 1.0 is
        # linear scaling, < 1 superlinear.  Guarded (suffix match).
        extra[f"{short}_efficiency"] = round(
            per_gate[0] / max(per_gate[-1], 1e-12), 3)
        extra[f"{short}_exponent"] = round(
            _fit_exponent(sizes, times), 3)
    return {"name": f"scaling_{ENGINE}", "stats": {"mean": 0.0},
            "extra_info": extra}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--gates", type=_parse_int_list,
                        default=DEFAULT_GATES, metavar="N,N,...",
                        help="gate-count ladder (default 1e3,1e4,1e5; "
                             "pass 1000000 explicitly for the "
                             "million-gate rung)")
    parser.add_argument("--patterns", type=int, default=256, metavar="N",
                        help="fault-detection pattern count (default 256)")
    parser.add_argument("--vectors", type=int, default=8, metavar="N",
                        help="power-replay test vectors (default 8)")
    parser.add_argument("--faults", type=int, default=200, metavar="N",
                        help="sampled fault-universe size (default 200)")
    parser.add_argument("--dffs", type=int, default=64, metavar="N",
                        help="flop count (fixed so the episode length "
                             "stays constant and the curve isolates "
                             "gate-count scaling; default 64)")
    parser.add_argument("--repeats", type=int, default=1, metavar="N",
                        help="timing repeats, best-of (default 1)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-o", "--output", type=Path, default=None,
                        help="write pytest-benchmark-style JSON here")
    args = parser.parse_args(argv)

    rungs: list[dict] = []
    for n_gates in sorted(set(args.gates)):
        print(f"{n_gates} gates")
        rungs.append(bench_size(n_gates, args))

    benchmarks = list(rungs)
    summary = summarize(rungs)
    if summary is not None:
        benchmarks.append(summary)
        extra = summary["extra_info"]
        print(f"replay exponent {extra['replay_exponent']:.2f} "
              f"(efficiency {extra['replay_efficiency']:.2f}), "
              f"fault exponent {extra['fault_exponent']:.2f} "
              f"(efficiency {extra['fault_efficiency']:.2f})")

    if args.output is not None:
        args.output.write_text(json.dumps(
            {"benchmarks": benchmarks}, indent=2) + "\n")
        print(f"wrote {args.output} ({len(benchmarks)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
