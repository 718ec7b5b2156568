"""Command-line interface: ``python -m repro`` / ``repro-power``.

Subcommands:

* ``table1``  — regenerate the paper's Table I (E1);
* ``figure2`` — regenerate the paper's Figure 2 (E2);
* ``run``     — run the full flow on one circuit and print its summary;
* ``ablation``— run one of the ablation studies (A1-A4);
* ``campaign``— run a multi-circuit sweep on the campaign layer
  (persistent worker pool + content-addressed result cache);
* ``serve``   — HTTP artifact API over the result cache (Table-I
  rows, flow artefacts, Figure 2; ETag caching, compute-on-miss);
* ``list``    — list the available benchmark circuits.

``table1`` and ``ablation`` accept ``--jobs N`` / ``--cache-dir DIR``
to run transparently on the campaign layer; results are bit-identical
to the serial path.
"""

from __future__ import annotations

import argparse
import math
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

    parser = argparse.ArgumentParser(
        prog="repro-power",
        description=("Reproduction of 'Simultaneous Reduction of Dynamic "
                     "and Static Power in Scan Structures' (DATE 2005)"))
    parser.add_argument("--seed", type=int, default=1,
                        help="master seed for all stochastic steps")
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help=("record span traces of this invocation "
                              "as JSONL files under DIR; pool worker "
                              "processes join the same trace "
                              "(default: $REPRO_TRACE or off; "
                              "'' pins off)"))
    parser.add_argument("--chaos", metavar="SPEC", default=None,
                        help=("seeded fault injection, e.g. "
                              "'seed=7,pool.task.kill=0.2,cache.write=0.5' "
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
                           "eviction (with --max-mb)")
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
    serve.add_argument("--compute-on-miss", action="store_true",
                       help=("compute missing artefacts inline on a "
                             "worker thread (default: a miss is 404)"))
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
    so the interpreter's final flush cannot raise again.  An unknown
    circuit name is a one-line error with exit code 2.
    """
    from repro.errors import UnknownCircuitError
    try:
        code = _main(argv)
        sys.stdout.flush()  # surface a broken pipe here, not at exit
        return code
    except UnknownCircuitError as exc:
        print(f"repro-power: error: {exc}", file=sys.stderr)
        return 2
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
        # ``None`` fields defer to the environment
        # (and a flagless invocation resets a leaked session) — then
        # fail fast on a malformed environment default behind any knob
        # the flags left unset.
        set_session_defaults(RuntimeOptions(trace=args.trace,
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

    if args.command == "serve":
        return _run_serve_command(args)

    if args.command == "table1":
        config = FlowConfig(seed=args.seed)
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


def _run_campaign_gc(args) -> int:
    """``repro campaign gc``: cache eviction by size and/or age."""
    from repro.campaign.cache import ResultCache

    conflicting = [flag for flag, value in (
        ("--circuits", args.circuits), ("--seeds", args.seeds),
        ("--kind", args.kind), ("--name", args.name),
        ("--jobs", args.jobs), ("--manifest", args.manifest),
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
    for flag, value in (("--max-mb", args.max_mb),
                        ("--max-age-days", args.max_age_days)):
        if value is not None and not 0 <= value < math.inf:
            print(f"repro-power: error: {flag} must be a finite number "
                  f">= 0, got {value:g}", file=sys.stderr)
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


def _run_serve_command(args) -> int:
    """The ``serve`` subcommand: blocking HTTP artifact API."""
    import json as _json

    from repro.campaign.cache import ResultCache
    from repro.campaign.service import ArtifactService, run_server
    from repro.errors import ServiceError

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
    try:
        service = ArtifactService(
            ResultCache(args.cache_dir or ".repro-cache"),
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
    if args.max_mb is not None or args.max_age_days is not None:
        print("repro-power: error: --max-mb/--max-age-days only "
              "apply to 'campaign gc'", file=sys.stderr)
        return 2

    try:
        if args.spec is not None:
            if args.circuits or args.seeds:
                print("repro-power: error: pass either a spec file or "
                      "--circuits/--seeds, not both", file=sys.stderr)
                return 2
            spec = load_spec(args.spec)
            if args.name is not None or args.kind is not None:
                spec = CampaignSpec(
                    circuits=spec.circuits, seeds=spec.seeds,
                    overrides=spec.overrides,
                    base=spec.base,
                    name=args.name if args.name is not None
                    else spec.name,
                    kind=args.kind if args.kind is not None
                    else spec.kind)
        elif args.circuits or args.kind == "figure2":
            spec = CampaignSpec(
                circuits=tuple(args.circuits) if args.circuits
                else ("figure2",),
                seeds=tuple(args.seeds) if args.seeds else (args.seed,),
                name=args.name or "campaign",
                kind=args.kind or "flow")
        else:
            print("repro-power: error: campaign needs a spec file, "
                  "--circuits, or --kind figure2", file=sys.stderr)
            return 2
    except ConfigError as exc:
        print(f"repro-power: error: {exc}", file=sys.stderr)
        return 2

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
