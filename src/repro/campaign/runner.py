"""Campaign execution: job graph -> pool -> cache -> ordered results.

:func:`run_flow_jobs` is the shared engine: it takes an ordered list of
:class:`~repro.campaign.manifest.CampaignJob`\\ s, consults the
content-addressed cache, executes the misses (inline or on a
:class:`~repro.campaign.pool.WorkerPool`), checkpoints every completion
into the cache and manifest as it lands, and returns artefacts in job
order regardless of worker scheduling.  :func:`run_campaign` wraps it
with spec expansion and manifest bookkeeping; the experiment harnesses
(``run_table1``, the ablations) call :func:`run_flow_jobs` directly so
their serial and parallel paths share one artefact builder and produce
bit-identical rows.

A *flow artefact* is the JSON-serializable distillate of one
:class:`~repro.core.flow.FlowResult`: the Table-I row, the three power
reports, the human summary and the detail counters the ablation
renderers need.  Floats survive the JSON round-trip exactly
(``repr``-based encoding), so cached rows are bit-identical to freshly
computed ones.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from typing import Any

from repro.benchgen.loader import (
    check_circuit,
    circuit_provenance,
    load_circuit,
)
from repro.campaign.cache import ResultCache
from repro.campaign.manifest import (
    CampaignJob,
    CampaignSpec,
    JobRecord,
    Manifest,
)
from repro.campaign.pool import WorkerPool
from repro.experiments.results import Table1Row
from repro.obs.trace import collect_phases, span
from repro.utils.hashing import package_fingerprint
from repro.utils.tables import format_table

__all__ = ["FLOW_ARTEFACT_KIND", "FIGURE2_ARTEFACT_KIND",
           "CampaignResult", "run_campaign", "run_flow_jobs",
           "flow_artefact", "row_from_artefact", "figure2_artefact",
           "figure2_from_artefact", "execute_job", "job_identity"]

#: Cache kind tag; bump the suffix when the artefact schema changes.
FLOW_ARTEFACT_KIND = "flow-artefact/v1"

#: Cache kind tag of Figure-2 leakage-table artefacts.
FIGURE2_ARTEFACT_KIND = "figure2-artefact/v1"

#: Stand-in circuit fingerprint for circuit-free figure2 jobs: the
#: leakage tables depend on the default library/technology only (the
#: code fingerprint in the cache key covers changes to either).
_FIGURE2_FINGERPRINT = "figure2:default-library"


def flow_artefact(job: CampaignJob, provenance: str, result,
                  elapsed_s: float) -> dict[str, Any]:
    """Distil one :class:`FlowResult` into a JSON-serializable dict."""
    reports = {method: dataclasses.asdict(report)
               for method, report in result.reports.items()}
    row = Table1Row.from_reports(
        job.circuit,
        result.reports["traditional"],
        result.reports["input_control"],
        result.reports["proposed"],
    )
    return {
        "kind": FLOW_ARTEFACT_KIND,
        "job_id": job.job_id,
        "circuit": job.circuit,
        "seed": job.seed,
        "provenance": provenance,
        "row": dataclasses.asdict(row),
        "reports": reports,
        "summary": result.summary(),
        "detail": {
            "n_scan_cells": len(result.design.pseudo_inputs),
            "n_blocked": len(result.pattern.blocked_gates),
            "n_muxable": len(result.addmux.muxable),
            "mux_coverage": result.addmux.coverage,
            "n_swapped": (len(result.reorder.swapped_gates)
                          if result.reorder is not None else 0),
        },
        "elapsed_s": elapsed_s,
    }


def row_from_artefact(artefact: dict[str, Any]) -> Table1Row:
    """Rebuild the Table-I row (floats round-trip exactly)."""
    return Table1Row(**artefact["row"])


def _execute_flow_job(payload: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: run the full flow for one job (picklable).

    The job's elapsed time is the ``job.execute`` span's own duration
    (one ``time.monotonic()`` pair — the manifest and the trace can
    never disagree); the phase totals its nested spans accumulated
    ride back in the transient ``_phases`` key, popped by every
    consumer before the artefact is cached.
    """
    from repro.core.flow import ProposedFlow
    job = CampaignJob(**payload)
    with collect_phases() as phases:
        with span("job.execute", job=job.job_id, kind="flow") as sp:
            circuit = load_circuit(job.circuit, seed=job.circuit_seed)
            result = ProposedFlow(job.flow_config()).run(circuit)
    artefact = flow_artefact(job, circuit_provenance(job.circuit),
                             result, sp.dur_s)
    artefact["_phases"] = phases
    return artefact


def _pattern_table_to_json(table: dict) -> dict[str, float]:
    """``{(0, 1): leak}`` -> ``{"01": leak}`` (JSON-safe keys)."""
    return {"".join(str(b) for b in pattern): leak
            for pattern, leak in table.items()}


def _pattern_table_from_json(table: dict) -> dict:
    return {tuple(int(c) for c in key): leak
            for key, leak in table.items()}


def figure2_artefact(job: CampaignJob, run, elapsed_s: float
                     ) -> dict[str, Any]:
    """Distil one :class:`~repro.experiments.figure2.Figure2Run`."""
    return {
        "kind": FIGURE2_ARTEFACT_KIND,
        "job_id": job.job_id,
        "circuit": job.circuit,
        "seed": job.seed,
        "nand2": _pattern_table_to_json(run.nand2),
        "paper_nand2": _pattern_table_to_json(run.paper_nand2),
        "extra_cells": {cell: _pattern_table_to_json(table)
                        for cell, table in run.extra_cells.items()},
        "max_relative_error": run.max_relative_error(),
        "render": run.render(),
        "summary": (f"figure2: max NAND2 model error "
                    f"{run.max_relative_error():.2%} vs the paper"),
        "elapsed_s": elapsed_s,
    }


def figure2_from_artefact(artefact: dict[str, Any]):
    """Rebuild the :class:`Figure2Run` (floats round-trip exactly)."""
    from repro.experiments.figure2 import Figure2Run
    return Figure2Run(
        nand2=_pattern_table_from_json(artefact["nand2"]),
        paper_nand2=_pattern_table_from_json(artefact["paper_nand2"]),
        extra_cells={cell: _pattern_table_from_json(table)
                     for cell, table in artefact["extra_cells"].items()},
    )


def _execute_figure2_job(payload: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: one Figure-2 leakage evaluation (picklable)."""
    from repro.experiments.figure2 import run_figure2
    job = CampaignJob(**payload)
    with collect_phases() as phases:
        with span("job.execute", job=job.job_id, kind="figure2") as sp:
            run = run_figure2()
    artefact = figure2_artefact(job, run, sp.dur_s)
    artefact["_phases"] = phases
    return artefact


#: Executor per artefact kind, resolved by module attribute at call
#: time so tests can monkeypatch the worker entry points.
_EXECUTORS = {
    FLOW_ARTEFACT_KIND: "_execute_flow_job",
    FIGURE2_ARTEFACT_KIND: "_execute_figure2_job",
}


def execute_job(job: CampaignJob, kind: str = FLOW_ARTEFACT_KIND
                ) -> dict[str, Any]:
    """Execute one campaign job in-process and return its artefact.

    The one entry point the in-process runner and the service's
    compute-on-miss path share; ``kind`` selects the
    executor (resolved by module attribute at call time, so tests can
    monkeypatch the underlying worker functions).
    """
    if kind not in _EXECUTORS:
        raise ValueError(f"unknown campaign job kind {kind!r}")
    return globals()[_EXECUTORS[kind]](dataclasses.asdict(job))


def job_identity(job: CampaignJob, kind: str = FLOW_ARTEFACT_KIND, *,
                 cache: ResultCache | None = None,
                 code_fingerprint: str | None = None,
                 fingerprints: dict[tuple[str, int], str] | None = None
                 ) -> tuple[str, str | None]:
    """``(config_hash, cache_key)`` of one campaign job.

    The canonical key derivation every consumer — the in-process
    runner and the artifact service — must share, so a job computed
    anywhere lands under the same content address.  ``cache_key`` is ``None`` without a ``cache``.
    ``fingerprints`` memoizes circuit fingerprints per
    ``(circuit, circuit_seed)`` across calls (one netlist load each).
    """
    if kind == FIGURE2_ARTEFACT_KIND:
        # run_figure2() ignores the flow config (and the seed), so
        # hashing it would split byte-identical artefacts across keys;
        # the code fingerprint covers the library.  Still build the
        # config so typo'd spec fields error like any other campaign.
        job.flow_config()
        config_hash = "figure2"
    else:
        config_hash = job.flow_config().config_hash()
    if cache is None:
        return config_hash, None
    if kind == FIGURE2_ARTEFACT_KIND:
        fingerprint = _FIGURE2_FINGERPRINT
    else:
        loader_key = (job.circuit, job.circuit_seed)
        fingerprint = None if fingerprints is None \
            else fingerprints.get(loader_key)
        if fingerprint is None:
            fingerprint = load_circuit(
                job.circuit, seed=job.circuit_seed).fingerprint()
            if fingerprints is not None:
                fingerprints[loader_key] = fingerprint
    if code_fingerprint is None:
        code_fingerprint = package_fingerprint()
    return config_hash, cache.key(kind, fingerprint, config_hash,
                                  code_fingerprint)


def run_flow_jobs(jobs_list: Sequence[CampaignJob], *,
                  jobs: int = 1,
                  cache: ResultCache | None = None,
                  manifest: Manifest | None = None,
                  pool: WorkerPool | None = None,
                  verbose: bool = False,
                  kind: str = FLOW_ARTEFACT_KIND
                  ) -> tuple[list[dict[str, Any]], list[JobRecord],
                             float, float]:
    """Run ``jobs_list``; returns ``(artefacts, records, wall_s,
    worker_s)``.

    ``artefacts`` and ``records`` are in job order.  ``wall_s`` is the
    monotonic wall clock of the whole call; ``worker_s`` is the
    aggregate compute time of the jobs that actually executed (cache
    hits contribute their *historical* ``elapsed_s`` to the artefact
    but not to ``worker_s``), so ``worker_s / wall_s`` is the honest
    parallel speedup.

    ``pool`` may be an externally owned (already started)
    :class:`WorkerPool`; otherwise one is created for ``jobs > 1`` and
    closed before returning.  Every completed job is checkpointed into
    ``cache`` and ``manifest`` as it lands, in completion order, so an
    interrupted run resumes from all finished jobs.

    ``kind`` selects the artefact each job computes (and its cache
    namespace): :data:`FLOW_ARTEFACT_KIND` runs the full flow,
    :data:`FIGURE2_ARTEFACT_KIND` evaluates the Figure-2 leakage
    tables (circuit-free; jobs are keyed on config + code only).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if kind not in _EXECUTORS:
        raise ValueError(f"unknown campaign job kind {kind!r}")
    execute = globals()[_EXECUTORS[kind]]
    if kind == FLOW_ARTEFACT_KIND:
        # A bad name fails here, in the caller, not inside a worker.
        for job in jobs_list:
            check_circuit(job.circuit)
    code_fp = package_fingerprint() if cache is not None else ""

    records: list[JobRecord] = []
    keys: list[str | None] = []
    artefacts: list[dict[str, Any] | None] = [None] * len(jobs_list)
    pending: list[int] = []
    fingerprints: dict[tuple[str, int], str] = {}  # one load per netlist
    # The campaign.run span doubles as the wall clock: wall_s below is
    # its own duration, so the manifest and a --trace capture of the
    # same run can never disagree about the campaign's wall time.
    with span("campaign.run", jobs=len(jobs_list),
              kind=kind) as run_span:
        with span("campaign.scan", jobs=len(jobs_list)):
            for index, job in enumerate(jobs_list):
                config_hash, key = job_identity(
                    job, kind, cache=cache,
                    code_fingerprint=code_fp or None,
                    fingerprints=fingerprints)
                keys.append(key)
                record = JobRecord(job_id=job.job_id,
                                   circuit=job.circuit,
                                   seed=job.seed,
                                   config_hash=config_hash,
                                   cache_key=key)
                records.append(record)
                hit = cache.get(key) if key is not None else None
                if hit is not None:
                    artefacts[index] = hit
                    record.status = "done"
                    record.source = "cache"
                    if verbose:
                        print(f"[cache] {job.job_id}", flush=True)
                else:
                    pending.append(index)
                if manifest is not None:
                    manifest.record(record, save=False)
            if manifest is not None:
                manifest.save()

        worker_s = 0.0

        def finish(index: int, artefact: dict[str, Any]) -> None:
            nonlocal worker_s
            phases = artefact.pop("_phases", None)  # before caching
            artefacts[index] = artefact
            worker_s += artefact["elapsed_s"]
            record = records[index]
            record.status = "done"
            record.source = "run"
            record.wall_s = artefact["elapsed_s"]
            record.phases = phases
            if cache is not None:
                job = jobs_list[index]
                cache.put(keys[index], artefact, meta={
                    "job_id": job.job_id,
                    "circuit": job.circuit,
                    "config_hash": record.config_hash,
                    "code": code_fp,
                })
            if manifest is not None:
                manifest.record(record)
            if verbose:
                print(artefact["summary"], flush=True)
                print(f"  [{artefact['elapsed_s']:.1f}s]", flush=True)

        try:
            if pending and jobs > 1 and len(pending) > 1:
                payloads = [dataclasses.asdict(jobs_list[i])
                            for i in pending]
                owned = pool is None
                active = pool if pool is not None else WorkerPool(
                    processes=min(jobs, len(pending)))
                try:
                    active.map(
                        execute, payloads,
                        on_result=lambda pos, artefact: finish(
                            pending[pos], artefact))
                finally:
                    if owned:
                        active.close()
            else:
                for index in pending:
                    artefact = execute(
                        dataclasses.asdict(jobs_list[index]))
                    finish(index, artefact)
        except BaseException as exc:
            for record in records:
                if record.status == "pending":
                    record.status = "failed"
                    record.error = str(exc)
            if manifest is not None:
                manifest.save()
            raise

    return artefacts, records, run_span.dur_s, worker_s  # type: ignore


@dataclasses.dataclass
class CampaignResult:
    """Everything one campaign run produced, in job order."""

    spec: CampaignSpec
    jobs: list[CampaignJob]
    artefacts: list[dict[str, Any]]
    records: list[JobRecord]
    wall_s: float
    #: Aggregate compute seconds of the jobs that actually executed.
    worker_s: float

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.records if r.source == "cache")

    @property
    def n_executed(self) -> int:
        return sum(1 for r in self.records if r.source == "run")

    def rows(self) -> list[Table1Row]:
        """Table-I rows for every job, in job order (flow kind only)."""
        return [row_from_artefact(a) for a in self.artefacts]

    def render(self) -> str:
        """Fixed-width status report of the campaign."""
        table = [
            [record.job_id, record.circuit, str(record.seed),
             record.status, record.source or "-",
             f"{artefact['elapsed_s']:.2f}" if artefact else "-"]
            for record, artefact in zip(self.records, self.artefacts)
        ]
        lines = [format_table(
            ["job", "circuit", "seed", "status", "source", "compute s"],
            table)]
        lines.append("")
        lines.append(
            f"Campaign {self.spec.name!r}: {len(self.jobs)} job(s) — "
            f"{self.n_executed} executed, {self.n_cached} from cache; "
            f"wall {self.wall_s:.2f}s, worker {self.worker_s:.2f}s")
        return "\n".join(lines)


def run_campaign(spec: CampaignSpec, *,
                 jobs: int = 1,
                 cache_dir: str | None = None,
                 manifest_path: str | None = None,
                 pool: WorkerPool | None = None,
                 verbose: bool = False) -> CampaignResult:
    """Expand ``spec`` and run it; see :func:`run_flow_jobs`.

    ``cache_dir`` enables the content-addressed artefact cache (re-runs
    with an unchanged spec, netlists and code complete without a single
    flow execution); ``manifest_path`` journals per-job status there.
    """
    expanded = spec.expand()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    manifest = Manifest.open(manifest_path, spec.digest()) \
        if manifest_path is not None else None
    kind = FIGURE2_ARTEFACT_KIND if spec.kind == "figure2" \
        else FLOW_ARTEFACT_KIND
    artefacts, records, wall_s, worker_s = run_flow_jobs(
        expanded, jobs=jobs, cache=cache, manifest=manifest, pool=pool,
        verbose=verbose, kind=kind)
    return CampaignResult(spec=spec, jobs=expanded, artefacts=artefacts,
                          records=records, wall_s=wall_s,
                          worker_s=worker_s)
