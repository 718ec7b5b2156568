"""Experiment E1: regenerate the paper's Table I.

For each circuit: run the full proposed flow (which also evaluates the
traditional-scan and input-control [8] baselines on the same ATPG test
set) and collect one :class:`~repro.experiments.results.Table1Row`.
Rendering places our measured values next to the paper's reference
numbers so shape comparisons (who wins, by roughly what factor) are
immediate.

The default circuit list covers the small and medium Table I rows; set
``REPRO_FULL_TABLE1=1`` (or pass ``circuits=...``) to run all twelve.

Circuits are independent, so the experiment is a natural campaign:
``jobs > 1`` fans them out over a persistent worker pool and
``cache_dir`` memoizes per-circuit artefacts content-addressed on
(netlist, config, code) — both via :mod:`repro.campaign`.  Rows and
renders are bit-identical across ``jobs`` counts and cache states; the
campaign path only skips the heavyweight per-circuit
:class:`~repro.core.flow.FlowResult` objects (``flow_results`` stays
empty there, as they cannot ride through JSON).
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Sequence

from repro.benchgen.iscas89 import TABLE1_CIRCUITS
from repro.benchgen.loader import circuit_provenance, load_circuit
from repro.core.config import FlowConfig
from repro.core.flow import FlowResult, ProposedFlow
from repro.experiments.results import PAPER_TABLE1, Table1Row
from repro.obs.trace import span
from repro.utils.tables import format_table

__all__ = ["Table1Run", "run_table1", "DEFAULT_CIRCUITS",
           "default_table1_circuits"]

#: Small/medium rows: tractable in seconds each on a laptop.
DEFAULT_CIRCUITS: tuple[str, ...] = (
    "s344", "s382", "s444", "s510", "s641", "s713",
    "s1196", "s1238", "s1423", "s1494",
)

ENV_FULL = "REPRO_FULL_TABLE1"


def default_table1_circuits() -> tuple[str, ...]:
    """Default circuit list, honouring ``REPRO_FULL_TABLE1``."""
    if os.environ.get(ENV_FULL, "") not in ("", "0"):
        return TABLE1_CIRCUITS
    return DEFAULT_CIRCUITS


@dataclasses.dataclass
class Table1Run:
    """The regenerated table plus per-circuit flow artefacts."""

    rows: list[Table1Row]
    flow_results: dict[str, FlowResult]
    provenance: dict[str, str]
    #: Per-circuit compute seconds (monotonic clock).  For cache hits
    #: this is the *historical* compute time of the run that produced
    #: the artefact.
    runtime_s: dict[str, float]
    #: Monotonic wall-clock seconds of the whole experiment.
    wall_s: float = 0.0
    #: Aggregate compute seconds of the flows that actually executed
    #: (cache hits excluded) — ``worker_s / wall_s`` is the honest
    #: parallel speedup of the run.
    worker_s: float = 0.0
    #: How many circuits came from the campaign cache.
    cache_hits: int = 0

    def render(self, include_paper: bool = True) -> str:
        """Fixed-width text rendering (mirrors Table I's columns)."""
        headers = [
            "Circuit", "Trad dyn", "Trad stat", "IC dyn", "IC stat",
            "Prop dyn", "Prop stat", "vsTrad dyn%", "vsTrad stat%",
            "vsIC dyn%", "vsIC stat%",
        ]
        lines = []
        table_rows = []
        for row in self.rows:
            table_rows.append([
                row.circuit,
                f"{row.trad_dynamic:.2e}", f"{row.trad_static:.2f}",
                f"{row.ic_dynamic:.2e}", f"{row.ic_static:.2f}",
                f"{row.prop_dynamic:.2e}", f"{row.prop_static:.2f}",
                f"{row.imp_trad_dynamic:.2f}", f"{row.imp_trad_static:.2f}",
                f"{row.imp_ic_dynamic:.2f}", f"{row.imp_ic_static:.2f}",
            ])
            paper = PAPER_TABLE1.get(row.circuit)
            if include_paper and paper is not None:
                table_rows.append([
                    "  (paper)",
                    f"{paper.trad_dynamic:.2e}",
                    f"{paper.trad_static:.2f}",
                    f"{paper.ic_dynamic:.2e}", f"{paper.ic_static:.2f}",
                    f"{paper.prop_dynamic:.2e}",
                    f"{paper.prop_static:.2f}",
                    f"{paper.imp_trad_dynamic:.2f}",
                    f"{paper.imp_trad_static:.2f}",
                    f"{paper.imp_ic_dynamic:.2f}",
                    f"{paper.imp_ic_static:.2f}",
                ])
        lines.append(format_table(headers, table_rows))
        lines.append("")
        lines.append("Provenance: " + ", ".join(
            f"{name}={src}" for name, src in self.provenance.items()))
        return "\n".join(lines)

    def timing_summary(self) -> str:
        """One line of wall vs aggregate-worker time (honest speedup)."""
        speedup = self.worker_s / self.wall_s if self.wall_s > 0 else 0.0
        return (f"wall {self.wall_s:.2f}s, worker {self.worker_s:.2f}s "
                f"({speedup:.2f}x), {self.cache_hits} cached")


def run_table1(circuits: Sequence[str] | None = None,
               config: FlowConfig | None = None,
               verbose: bool = False,
               jobs: int | None = None,
               cache_dir: str | None = None) -> Table1Run:
    """Run experiment E1 over ``circuits`` (default: the tractable set).

    ``jobs`` > 1 runs the circuits as a parallel campaign on a
    persistent worker pool; ``cache_dir`` additionally memoizes the
    per-circuit artefacts (see the module docstring).  Rows and renders
    are bit-identical across all combinations.
    """
    circuits = list(circuits) if circuits is not None \
        else list(default_table1_circuits())
    config = config or FlowConfig(seed=1)

    if (jobs or 1) > 1 or cache_dir is not None:
        return _run_table1_campaign(circuits, config, verbose,
                                    jobs or 1, cache_dir)

    flow = ProposedFlow(config)
    rows: list[Table1Row] = []
    results: dict[str, FlowResult] = {}
    provenance: dict[str, str] = {}
    runtime: dict[str, float] = {}
    # Timing is the spans' own measurement (one time.monotonic() pair
    # each): the reported runtime_s/wall_s and a --trace capture of
    # the same run come from the same clock reads.
    with span("table1.run", circuits=len(circuits)) as wall_span:
        for name in circuits:
            with span("table1.circuit", circuit=name) as sp:
                circuit = load_circuit(name, seed=config.seed or 1)
                result = flow.run(circuit)
            elapsed = sp.dur_s
            rows.append(Table1Row.from_reports(
                name,
                result.reports["traditional"],
                result.reports["input_control"],
                result.reports["proposed"],
            ))
            results[name] = result
            provenance[name] = circuit_provenance(name)
            runtime[name] = elapsed
            if verbose:
                print(result.summary())
                print(f"  [{elapsed:.1f}s]", flush=True)
    return Table1Run(rows=rows, flow_results=results,
                     provenance=provenance, runtime_s=runtime,
                     wall_s=wall_span.dur_s,
                     worker_s=sum(runtime.values()))


def _run_table1_campaign(circuits: list[str], config: FlowConfig,
                         verbose: bool, jobs: int,
                         cache_dir: str | None) -> Table1Run:
    """Campaign path: same rows, computed on the campaign runner."""
    from repro.campaign.cache import ResultCache
    from repro.campaign.manifest import CampaignJob, config_kwargs
    from repro.campaign.runner import row_from_artefact, run_flow_jobs

    base = config_kwargs(config)
    job_list = [
        CampaignJob(job_id=name, circuit=name, seed=config.seed,
                    circuit_seed=config.seed or 1, config_kwargs=base)
        for name in circuits
    ]
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    artefacts, records, wall_s, worker_s = run_flow_jobs(
        job_list, jobs=jobs, cache=cache, verbose=verbose)
    return Table1Run(
        rows=[row_from_artefact(a) for a in artefacts],
        flow_results={},
        provenance={a["circuit"]: a["provenance"] for a in artefacts},
        runtime_s={a["circuit"]: a["elapsed_s"] for a in artefacts},
        wall_s=wall_s,
        worker_s=worker_s,
        cache_hits=sum(1 for r in records if r.source == "cache"),
    )
