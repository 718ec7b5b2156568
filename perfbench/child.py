"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every per-process
lazy cache (levelized schedules, fault plans and cone rows, the package
fingerprint, worker pools) is paid the way a user pays it, and the peak
RSS covers one repetition.  The repetition record is written as JSON to
``--out``; a traced repetition also writes its spans to ``--spans``.

``--phase setup`` stops after set-up (a set-up time probe); ``--phase
fill`` fills the serving workload's cache.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback

import workloads


def peak_rss_mb() -> float:
    """Peak RSS of this process or any pool worker it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--phase", default="run",
                        choices=("run", "setup", "fill"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    # The parent cleared every REPRO_* variable; also reset the session
    # defaults so the run measures what a user gets by default.
    from repro.runtime import set_session_defaults
    set_session_defaults()

    ctx = workloads.Context(seed=args.seed, work_dir=args.work_dir,
                            spawn_t=args.spawn_t, trace=bool(args.trace),
                            setup_only=args.phase == "setup")
    try:
        if args.phase == "fill":
            record = workloads.fill(ctx)
        else:
            record = workloads.WORKLOADS[args.workload](ctx)
    except workloads.SetupDone:
        record = {}
    except Exception:  # noqa: BLE001 - reported to the parent as failed
        traceback.print_exc()
        record = {"error": traceback.format_exc(limit=4)}
    tracer = record.pop("tracer", None)
    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    record["setup_s"] = ctx.setup_s
    record["peak_rss_mb"] = peak_rss_mb()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
