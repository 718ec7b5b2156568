"""Command-line interface: ``python -m repro`` / ``repro-power``.

Subcommands:

* ``table1``  — regenerate the paper's Table I (E1);
* ``figure2`` — regenerate the paper's Figure 2 (E2);
* ``run``     — run the full flow on one circuit and print its summary;
* ``ablation``— run one of the ablation studies (A1-A4);
* ``campaign``— run a multi-circuit sweep on the campaign layer
  (persistent worker pool + content-addressed result cache), or
  enqueue it onto a shared work queue (``--enqueue DIR``);
* ``worker``  — drain a shared work queue directory (any number of
  worker processes, on one or many hosts, share one queue);
* ``serve``   — HTTP artifact API over the result cache (Table-I
  rows, flow artefacts, Figure 2; ETag caching, enqueue-on-miss);
* ``list``    — list the available benchmark circuits.

``table1`` and ``ablation`` accept ``--jobs N`` / ``--cache-dir DIR``
to run transparently on the campaign layer; results are bit-identical
to the serial path.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.benchgen.loader import (
    available_circuits,
    circuit_provenance,
    load_circuit,
)
from repro.core.config import FlowConfig
from repro.core.flow import ProposedFlow
from repro.experiments.ablations import (
    ablation_ivc_budget,
    ablation_mux_margin,
    ablation_observability,
    ablation_reorder,
    render_rows,
)
from repro.experiments.figure2 import run_figure2
from repro.experiments.table1 import run_table1
from repro.experiments.textio import table1_to_csv, table1_to_markdown

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    from repro.campaign.manifest import SPEC_KINDS
    from repro.simulation.backends import available_backends

    parser = argparse.ArgumentParser(
        prog="repro-power",
        description=("Reproduction of 'Simultaneous Reduction of Dynamic "
                     "and Static Power in Scan Structures' (DATE 2005)"))
    parser.add_argument("--seed", type=int, default=1,
                        help="master seed for all stochastic steps")
    parser.add_argument("--backend", choices=available_backends(),
                        default=None,
                        help=("simulation backend for all packed "
                              "simulations (results are bit-identical; "
                              "default: $REPRO_SIM_BACKEND or bigint)"))
    parser.add_argument("--fault-backend", choices=available_backends(),
                        default=None,
                        help=("backend for fault simulation specifically "
                              "(bit-identical; default: $REPRO_FAULT_BACKEND, "
                              "else --backend)"))
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help=("worker processes for the 'sharded' fault "
                              "backend (implies --fault-backend sharded; "
                              "default: $REPRO_SIM_SHARDS or cpu count)"))
    parser.add_argument("--stream-budget", type=int, default=None,
                        metavar="N",
                        help=("out-of-core streaming budget in uint64 "
                              "elements of one window's state matrix: "
                              "plans that exceed it evaluate in "
                              "bounded-memory windows, bit-identical "
                              "to the resident path (0 = off; "
                              "default: $REPRO_STREAM_BUDGET or off)"))
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help=("record span traces of this invocation "
                              "as JSONL files under DIR; worker "
                              "processes join the same trace "
                              "(default: $REPRO_TRACE or off; "
                              "'' pins off)"))
    parser.add_argument("--chaos", metavar="SPEC", default=None,
                        help=("seeded fault injection, e.g. "
                              "'seed=7,queue.*=0.2,cache.write=0.5' "
                              "(site patterns -> firing rates; see "
                              "README 'Failure semantics'; injected "
                              "faults are survived — results stay "
                              "bit-identical; default: $REPRO_CHAOS "
                              "or off; '' pins off)"))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_campaign_args(p) -> None:
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help=("run independent flows on N pool workers "
                             "(default: serial)"))
        p.add_argument("--cache-dir", metavar="DIR", default=None,
                       help=("content-addressed result cache directory "
                             "(re-runs skip cached flows)"))

    t1 = sub.add_parser("table1", help="regenerate Table I")
    t1.add_argument("circuits", nargs="*",
                    help="circuit names (default: the tractable subset)")
    t1.add_argument("--format", choices=("text", "csv", "markdown"),
                    default="text")
    t1.add_argument("--quiet", action="store_true",
                    help="suppress per-circuit progress output")
    t1.add_argument("--experiments-md", metavar="PATH", default=None,
                    help="also write the EXPERIMENTS.md report to PATH")
    add_campaign_args(t1)

    sub.add_parser("figure2", help="regenerate Figure 2")

    camp = sub.add_parser(
        "campaign",
        help="run a circuits x seeds sweep on the campaign layer")
    camp.add_argument("spec", nargs="?", default=None,
                      help="JSON campaign spec file (see README "
                           "'Campaigns'); omit to use --circuits; the "
                           "literal word 'gc' instead runs cache "
                           "eviction (with --max-mb); the literal "
                           "word 'retry-failed' re-queues a work "
                           "queue's quarantined jobs (pass the queue "
                           "directory after it)")
    camp.add_argument("queue_dir", nargs="?", default=None,
                      metavar="QUEUE_DIR",
                      help=("with 'retry-failed': the work queue "
                            "directory whose failed/ jobs to re-queue"))
    camp.add_argument("--circuits", nargs="+", default=None,
                      metavar="NAME",
                      help="inline spec: circuits to sweep")
    camp.add_argument("--kind", choices=SPEC_KINDS, default=None,
                      help=("job kind: 'flow' (Table-I flow artefacts, "
                            "default) or 'figure2' (leakage-table "
                            "artefacts; --circuits optional)"))
    camp.add_argument("--max-mb", type=float, default=None, metavar="N",
                      help=("with 'gc': evict least-recently-modified "
                            "cache entries until the cache fits N MB"))
    camp.add_argument("--max-age-days", type=float, default=None,
                      metavar="N",
                      help=("with 'gc': evict cache entries not "
                            "written for N days (combinable with "
                            "--max-mb; age runs first)"))
    camp.add_argument("--enqueue", metavar="DIR", default=None,
                      help=("enqueue the expanded spec onto the work "
                            "queue at DIR instead of running it; "
                            "drain with 'repro-power worker DIR'"))
    camp.add_argument("--lease-ttl", type=float, default=None,
                      metavar="S",
                      help=("with --enqueue: lease time-to-live in "
                            "seconds; a claimed job whose worker "
                            "stops heartbeating for S seconds is "
                            "re-queued (default: 60)"))
    camp.add_argument("--seeds", nargs="+", type=int, default=None,
                      metavar="SEED",
                      help="inline spec: seeds to sweep (default: --seed)")
    camp.add_argument("--name", default=None,
                      help=("campaign name (manifest file stem; "
                            "default: the spec's name or 'campaign'; "
                            "overrides a spec file's name)"))
    camp.add_argument("--manifest", metavar="PATH", default=None,
                      help=("manifest path (default: "
                            "<cache-dir>/<name>.manifest.json)"))
    camp.add_argument("--no-cache", action="store_true",
                      help="disable the result cache for this run")
    camp.add_argument("--expect-all-cached", action="store_true",
                      help=("exit non-zero if any job had to execute "
                            "(CI guard for warm re-runs)"))
    camp.add_argument("--quiet", action="store_true",
                      help="suppress per-job progress output")
    add_campaign_args(camp)

    worker = sub.add_parser(
        "worker",
        help="drain a campaign work queue (multi-host capable)")
    worker.add_argument("queue_dir", metavar="QUEUE_DIR",
                        help=("work queue directory (created by "
                              "'campaign --enqueue' or 'serve "
                              "--queue-dir'); share it between hosts "
                              "to distribute the drain"))
    worker.add_argument("--cache-dir", metavar="DIR", default=None,
                        help=("result cache directory (default: "
                              ".repro-cache); share it with the other "
                              "workers and the service"))
    worker.add_argument("--worker-id", default=None, metavar="ID",
                        help="worker name recorded in leases/manifest "
                             "(default: <hostname>-<pid>)")
    worker.add_argument("--wait", action="store_true",
                        help=("keep polling for new jobs after the "
                              "queue drains (long-lived worker behind "
                              "'serve'; default: exit when empty)"))
    worker.add_argument("--poll-s", type=float, default=0.5,
                        metavar="S",
                        help="idle poll interval in seconds")
    worker.add_argument("--max-jobs", type=int, default=None,
                        metavar="N",
                        help="process at most N jobs, then exit")
    worker.add_argument("--lease-ttl", type=float, default=None,
                        metavar="S",
                        help=("override the queue's lease TTL for "
                              "this worker's scavenging"))
    worker.add_argument("--max-attempts", type=int, default=None,
                        metavar="N",
                        help=("re-queue a job whose execution raised "
                              "up to N attempts before quarantining "
                              "it in failed/ (default: the queue's "
                              "max_attempts, normally 3)"))
    worker.add_argument("--manifest", metavar="PATH", default=None,
                        help=("after draining, assemble the campaign "
                              "manifest from the queue's records into "
                              "PATH"))
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress output")

    serve = sub.add_parser(
        "serve",
        help="HTTP artifact API over the campaign result cache")
    serve.add_argument("--cache-dir", metavar="DIR", default=None,
                       help=("result cache directory to serve from "
                             "(default: .repro-cache)"))
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8350,
                       help="TCP port (default: 8350)")
    serve.add_argument("--queue-dir", metavar="DIR", default=None,
                       help=("enqueue cache misses onto the work "
                             "queue at DIR (202 + poll URL; created "
                             "if missing) instead of answering 404"))
    serve.add_argument("--compute-on-miss", action="store_true",
                       help=("compute missing artefacts inline on a "
                             "worker thread (wins over --queue-dir)"))
    serve.add_argument("--base", metavar="JSON", default=None,
                       help=("base FlowConfig kwargs (JSON object) "
                             "applied under every request's "
                             "overrides"))
    serve.add_argument("--max-connections", type=int, default=None,
                       metavar="N",
                       help=("shed connections beyond N concurrent "
                             "with 503 + Retry-After (default: "
                             "uncapped)"))
    serve.add_argument("--request-timeout", type=float, default=None,
                       metavar="S",
                       help=("answer 504 to requests not handled "
                             "within S seconds (default: unbounded)"))

    run_p = sub.add_parser("run", help="run the flow on one circuit")
    run_p.add_argument("circuit")
    run_p.add_argument("--no-reorder", action="store_true",
                       help="skip the input-reordering step")
    run_p.add_argument("--no-directive", action="store_true",
                       help="disable the leakage-observability directive")

    ab = sub.add_parser("ablation", help="run an ablation study")
    ab.add_argument("which",
                    choices=("observability", "mux", "reorder", "ivc"))
    ab.add_argument("circuits", nargs="*", default=None)
    add_campaign_args(ab)

    trace_p = sub.add_parser(
        "trace", help="inspect recorded span traces")
    trace_sub = trace_p.add_subparsers(dest="trace_command",
                                       required=True)
    tsum = trace_sub.add_parser(
        "summarize",
        help=("aggregate a --trace directory: per-phase totals, "
              "processes, critical path"))
    tsum.add_argument("trace_dir", metavar="DIR",
                      help="directory previously passed to --trace")

    sub.add_parser("list", help="list available circuits")
    sub.add_parser("library", help="describe the cell library")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A reader that closes stdout early (``repro-power list | head -1``)
    ends the run with exit code 1 and no traceback.  Stdout is then
    pointed at ``os.devnull`` (the recipe of Python's ``signal`` docs),
    so the interpreter's final flush cannot raise again.
    """
    try:
        code = _main(argv)
        sys.stdout.flush()  # surface a broken pipe here, not at exit
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _main(argv: Sequence[str] | None) -> int:
    args = _build_parser().parse_args(argv)

    from repro.errors import ConfigError
    from repro.runtime import KNOBS, RuntimeOptions, resolve, \
        set_session_defaults
    try:
        # One unified session install for every runtime knob — all
        # ``None`` fields defer to the environment/built-in defaults
        # (and a flagless invocation resets a leaked session) — then
        # fail fast on a malformed environment default behind any knob
        # the flags left unset.
        set_session_defaults(RuntimeOptions(
            backend=args.backend,
            fault_backend=args.fault_backend,
            shards=args.shards,
            stream_budget=args.stream_budget,
            trace=args.trace,
            chaos=args.chaos))
        for name in KNOBS:
            resolve(name)
    except (ConfigError, OSError) as exc:
        # OSError: an unwritable --trace directory.
        print(f"repro-power: error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        print("repro-power: error: --jobs must be >= 1", file=sys.stderr)
        return 2

    if args.command == "trace":
        from repro.obs.trace import summarize_trace
        summary = summarize_trace(args.trace_dir)
        if not summary.spans:
            print(f"repro-power: no spans found under "
                  f"{args.trace_dir}", file=sys.stderr)
            return 1
        print(summary.render())
        return 0

    if args.command == "list":
        for name in available_circuits():
            print(f"{name:10s} {circuit_provenance(name)}")
        return 0

    if args.command == "figure2":
        print(run_figure2().render())
        return 0

    if args.command == "library":
        from repro.cells.report import describe_library
        print(describe_library())
        return 0

    if args.command == "campaign":
        return _run_campaign_command(args)

    if args.command == "worker":
        return _run_worker_command(args)

    if args.command == "serve":
        return _run_serve_command(args)

    if args.command == "table1":
        config = FlowConfig(seed=args.seed, backend=args.backend,
                            fault_backend=args.fault_backend,
                            shards=args.shards,
                            stream_budget=args.stream_budget)
        circuits = args.circuits or None
        run = run_table1(circuits, config, verbose=not args.quiet,
                         jobs=args.jobs, cache_dir=args.cache_dir)
        if args.experiments_md:
            from repro.experiments.figure2 import run_figure2 as _fig2
            from repro.experiments.report_writer import \
                write_experiments_md
            write_experiments_md(run, _fig2(), args.experiments_md)
        if args.format == "csv":
            print(table1_to_csv(run.rows))
        elif args.format == "markdown":
            print(table1_to_markdown(run.rows))
        else:
            print(run.render())
        return 0

    if args.command == "run":
        config = FlowConfig(
            seed=args.seed,
            backend=args.backend,
            fault_backend=args.fault_backend,
            shards=args.shards,
            stream_budget=args.stream_budget,
            reorder_inputs=not args.no_reorder,
            use_observability_directive=not args.no_directive)
        result = ProposedFlow(config).run(load_circuit(args.circuit,
                                                       seed=args.seed))
        print(result.summary())
        return 0

    if args.command == "ablation":
        circuits = args.circuits or ["s344", "s382"]
        grid_kwargs = {"seed": args.seed, "jobs": args.jobs or 1,
                       "cache_dir": args.cache_dir}
        if args.which == "observability":
            rows = ablation_observability(circuits, **grid_kwargs)
            print(render_rows(rows, "A1: observability directive"))
        elif args.which == "mux":
            rows = ablation_mux_margin(circuits, **grid_kwargs)
            print(render_rows(rows, "A2: MUX margin sweep"))
        elif args.which == "reorder":
            rows = ablation_reorder(circuits, **grid_kwargs)
            print(render_rows(rows, "A3: input reordering"))
        else:
            # A4 replays IVC fills against one in-process base flow;
            # it has no campaign path (see repro.experiments.ablations).
            rows = ablation_ivc_budget(circuits[0], seed=args.seed)
            print(render_rows(rows, "A4: IVC budget sweep"))
        return 0

    return 2  # pragma: no cover - argparse enforces the choices


def _run_campaign_retry_failed(args) -> int:
    """``repro campaign retry-failed DIR``: re-queue quarantined jobs.

    Every job parked in ``failed/`` (attempt budget exhausted) is
    moved back to ``pending/`` with its attempt count and failure
    record cleared, so the next worker drain retries it from scratch
    — the operator's lever after fixing whatever poisoned the jobs.
    """
    from repro.campaign.queue import WorkQueue
    from repro.errors import QueueError

    if args.queue_dir is None:
        print("repro-power: error: campaign retry-failed needs the "
              "work queue directory", file=sys.stderr)
        return 2
    try:
        queue = WorkQueue(args.queue_dir)
        queue._metadata()  # fail fast on a missing/corrupt queue
        requeued = queue.retry_failed()
    except QueueError as exc:
        print(f"repro-power: error: {exc}", file=sys.stderr)
        return 2
    depth = queue.depth()
    print(f"campaign retry-failed: re-queued {requeued} job(s); "
          f"queue now {depth.pending} pending / {depth.claimed} "
          f"claimed / {depth.done} done / {depth.failed} failed")
    return 0


def _run_campaign_gc(args) -> int:
    """``repro campaign gc``: cache eviction by size and/or age."""
    from repro.campaign.cache import ResultCache

    conflicting = [flag for flag, value in (
        ("--circuits", args.circuits), ("--seeds", args.seeds),
        ("--kind", args.kind), ("--name", args.name),
        ("--jobs", args.jobs), ("--manifest", args.manifest),
        ("--enqueue", args.enqueue), ("--lease-ttl", args.lease_ttl),
        ("--no-cache", args.no_cache or None),
        ("--expect-all-cached", args.expect_all_cached or None),
    ) if value is not None]
    if conflicting:
        print(f"repro-power: error: campaign gc does not accept "
              f"{', '.join(conflicting)}", file=sys.stderr)
        return 2
    if args.max_mb is None and args.max_age_days is None:
        print("repro-power: error: campaign gc needs --max-mb N "
              "and/or --max-age-days N", file=sys.stderr)
        return 2
    if args.max_mb is not None and args.max_mb < 0:
        print("repro-power: error: --max-mb must be >= 0",
              file=sys.stderr)
        return 2
    if args.max_age_days is not None and args.max_age_days < 0:
        print("repro-power: error: --max-age-days must be >= 0",
              file=sys.stderr)
        return 2
    cache_dir = args.cache_dir or ".repro-cache"
    cache = ResultCache(cache_dir)
    evicted = 0
    freed = 0
    budget = []
    if args.max_age_days is not None:
        # Age first: size-based LRU then works on what's left.
        n, b = cache.gc_older_than(args.max_age_days * 86400.0)
        evicted += n
        freed += b
        budget.append(f"age {args.max_age_days:g} day(s)")
    if args.max_mb is not None:
        n, b = cache.gc(int(args.max_mb * 1024 * 1024))
        evicted += n
        freed += b
        budget.append(f"budget {args.max_mb:g} MB")
    print(f"campaign gc: evicted {evicted} entry(ies), freed "
          f"{freed / (1024 * 1024):.2f} MB "
          f"(cache {cache_dir}, {', '.join(budget)})")
    return 0


def _run_worker_command(args) -> int:
    """The ``worker`` subcommand: drain one shared work queue.

    SIGTERM is graceful: the worker finishes (or re-queues) the job it
    holds, then exits 0 — an orchestrator scaling workers down never
    loses work (SIGKILL is also safe, via lease expiry, just slower).
    """
    import signal
    import threading

    from repro.campaign.queue import WorkQueue, run_worker
    from repro.errors import QueueError

    if args.poll_s <= 0:
        print("repro-power: error: --poll-s must be > 0",
              file=sys.stderr)
        return 2
    if args.max_jobs is not None and args.max_jobs < 1:
        print("repro-power: error: --max-jobs must be >= 1",
              file=sys.stderr)
        return 2
    if args.max_attempts is not None and args.max_attempts < 1:
        print("repro-power: error: --max-attempts must be >= 1",
              file=sys.stderr)
        return 2
    stop = threading.Event()
    previous = signal.signal(signal.SIGTERM,
                             lambda _signum, _frame: stop.set())
    cache_dir = args.cache_dir or ".repro-cache"
    try:
        stats = run_worker(
            args.queue_dir, cache_dir,
            worker_id=args.worker_id,
            poll_s=args.poll_s,
            wait=args.wait,
            max_jobs=args.max_jobs,
            lease_ttl_s=args.lease_ttl,
            max_attempts=args.max_attempts,
            verbose=not args.quiet,
            should_stop=stop.is_set)
    except QueueError as exc:
        print(f"repro-power: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("repro-power: worker interrupted (claim returned to "
              "the queue)", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)
    if stop.is_set() and not args.quiet:
        print("repro-power: worker stopping on SIGTERM (current job "
              "settled)", file=sys.stderr)
    queue = WorkQueue(args.queue_dir)
    depth = queue.depth()
    print(f"worker {stats.worker_id}: {stats.executed} executed, "
          f"{stats.cached} from cache, {stats.failed} failed, "
          f"{stats.requeued} re-queued, {stats.retried} retried in "
          f"{stats.wall_s:.2f}s; "
          f"queue now {depth.pending} pending / {depth.claimed} "
          f"claimed / {depth.done} done / {depth.failed} failed")
    if args.manifest is not None:
        queue.write_manifest(args.manifest)
        print(f"Manifest: {args.manifest}")
    return 1 if stats.failed else 0


def _run_serve_command(args) -> int:
    """The ``serve`` subcommand: blocking HTTP artifact API."""
    import json as _json

    from repro.campaign.cache import ResultCache
    from repro.campaign.queue import WorkQueue
    from repro.campaign.service import ArtifactService, run_server
    from repro.errors import QueueError, ServiceError

    base = {}
    if args.base is not None:
        try:
            base = _json.loads(args.base)
        except ValueError:
            base = None
        if not isinstance(base, dict):
            print("repro-power: error: --base must be a JSON object",
                  file=sys.stderr)
            return 2
    if not 1 <= args.port <= 65535:
        print("repro-power: error: --port must be in 1..65535",
              file=sys.stderr)
        return 2
    queue = None
    if args.queue_dir is not None:
        try:
            queue = WorkQueue.create(args.queue_dir)
        except QueueError as exc:
            print(f"repro-power: error: {exc}", file=sys.stderr)
            return 2
    try:
        service = ArtifactService(
            ResultCache(args.cache_dir or ".repro-cache"),
            queue=queue,
            compute_on_miss=args.compute_on_miss,
            base=base,
            max_connections=args.max_connections,
            request_timeout_s=args.request_timeout)
    except ServiceError as exc:
        print(f"repro-power: error: {exc}", file=sys.stderr)
        return 2
    try:
        run_server(service, args.host, args.port)
    except (ServiceError, OSError) as exc:
        print(f"repro-power: error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_campaign_command(args) -> int:
    """The ``campaign`` subcommand (spec -> runner -> status report)."""
    from pathlib import Path

    from repro.campaign.manifest import CampaignSpec, load_spec
    from repro.campaign.runner import run_campaign
    from repro.errors import ConfigError

    if args.spec == "gc":
        return _run_campaign_gc(args)
    if args.spec == "retry-failed":
        return _run_campaign_retry_failed(args)
    if args.queue_dir is not None:
        print("repro-power: error: a second positional argument only "
              "applies to 'campaign retry-failed QUEUE_DIR'",
              file=sys.stderr)
        return 2
    if args.max_mb is not None or args.max_age_days is not None:
        print("repro-power: error: --max-mb/--max-age-days only "
              "apply to 'campaign gc'", file=sys.stderr)
        return 2
    if args.lease_ttl is not None and args.enqueue is None:
        print("repro-power: error: --lease-ttl only applies with "
              "--enqueue", file=sys.stderr)
        return 2

    runtime_base = {}
    if args.backend is not None:
        runtime_base["backend"] = args.backend
    if args.fault_backend is not None:
        runtime_base["fault_backend"] = args.fault_backend
    if args.shards is not None:
        runtime_base["shards"] = args.shards
    if args.stream_budget is not None:
        runtime_base["stream_budget"] = args.stream_budget

    try:
        if args.spec is not None:
            if args.circuits or args.seeds:
                print("repro-power: error: pass either a spec file or "
                      "--circuits/--seeds, not both", file=sys.stderr)
                return 2
            spec = load_spec(args.spec)
            if runtime_base or args.name is not None \
                    or args.kind is not None:
                spec = CampaignSpec(
                    circuits=spec.circuits, seeds=spec.seeds,
                    overrides=spec.overrides,
                    base={**spec.base, **runtime_base},
                    name=args.name if args.name is not None
                    else spec.name,
                    kind=args.kind if args.kind is not None
                    else spec.kind)
        elif args.circuits or args.kind == "figure2":
            spec = CampaignSpec(
                circuits=tuple(args.circuits) if args.circuits
                else ("figure2",),
                seeds=tuple(args.seeds) if args.seeds else (args.seed,),
                base=runtime_base,
                name=args.name or "campaign",
                kind=args.kind or "flow")
        else:
            print("repro-power: error: campaign needs a spec file, "
                  "--circuits, or --kind figure2", file=sys.stderr)
            return 2
    except ConfigError as exc:
        print(f"repro-power: error: {exc}", file=sys.stderr)
        return 2

    if args.enqueue is not None:
        from repro.campaign.queue import DEFAULT_LEASE_TTL_S, WorkQueue
        from repro.errors import QueueError
        rejected = [flag for flag, value in (
            ("--jobs", args.jobs), ("--manifest", args.manifest),
            ("--no-cache", args.no_cache or None),
            ("--expect-all-cached", args.expect_all_cached or None),
        ) if value is not None]
        if rejected:
            print(f"repro-power: error: --enqueue does not accept "
                  f"{', '.join(rejected)} (workers own execution; "
                  f"pass --cache-dir/--manifest to 'repro-power "
                  f"worker')", file=sys.stderr)
            return 2
        if args.lease_ttl is not None and args.lease_ttl <= 0:
            print("repro-power: error: --lease-ttl must be > 0",
                  file=sys.stderr)
            return 2
        try:
            queue = WorkQueue(args.enqueue)
            enqueued = queue.enqueue(
                spec,
                lease_ttl_s=args.lease_ttl if args.lease_ttl is not None
                else DEFAULT_LEASE_TTL_S)
        except QueueError as exc:
            print(f"repro-power: error: {exc}", file=sys.stderr)
            return 2
        depth = queue.depth()
        print(f"campaign {spec.name!r}: enqueued {enqueued} job(s) "
              f"onto {args.enqueue} ({depth.pending} pending, "
              f"{depth.done} already done); drain with "
              f"'repro-power worker {args.enqueue}'")
        return 0

    cache_dir = None if args.no_cache else \
        (args.cache_dir or ".repro-cache")
    manifest = args.manifest
    if manifest is None and cache_dir is not None:
        manifest = str(Path(cache_dir) / f"{spec.name}.manifest.json")

    try:
        result = run_campaign(spec, jobs=args.jobs or 1,
                              cache_dir=cache_dir,
                              manifest_path=manifest,
                              verbose=not args.quiet)
    except ConfigError as exc:
        print(f"repro-power: error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    if manifest is not None:
        print(f"Manifest: {manifest}")
    if args.expect_all_cached and result.n_executed:
        print(f"repro-power: error: expected a fully cached campaign "
              f"but {result.n_executed} job(s) executed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
