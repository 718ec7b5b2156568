"""The benchmark workloads; each call runs inside one fresh interpreter.

Every workload returns one *repetition record* for ``run.py``:

``wall_s``
    wall time of the repetition's timed unit of work;
``serial_s``
    summed compute time of the unit's items (jobs, passes, requests);
``items_ms``
    per-item latencies; ``n_items`` / ``failed`` count attempted and
    failed items (a wrong output counts as failed);
``quality``
    fault coverage and the proposed-vs-traditional power reductions;
``outputs``
    the outputs that must be identical on every repetition;
``runtime`` / ``provenance``
    the resolved engine knobs and where each circuit came from.

A traced repetition (``ctx.trace``) adds ``layers``: the per-layer
metrics of :func:`layers.metrics`.  Set-up ends at
:meth:`Context.setup_done`, just before the first timed operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import re
import shutil
import socket
import statistics
import threading
import time
from typing import Any

import layers
from tracer import Tracer

__all__ = ["Context", "SetupDone", "WORKLOADS", "fill"]

#: The six Table-I rows the campaign bench already uses.
TABLE1_CIRCUITS = ("s344", "s382", "s444", "s510", "s641", "s713")
TABLE1_NETLIST_SEED = 1

#: The largest Table-I row; its netlist is fixed (loader seed 1) and
#: only the test set follows the benchmark seed.
GRADE_CIRCUIT = "s9234"
GRADE_VECTORS = 128
#: Graded share of the collapsed universe: every 4th fault.  The whole
#: universe takes ~38 s per pass on the default engine (one 2.1 GHz
#: Xeon vCPU), which leaves no room to repeat the pass in fresh
#: interpreters; a fixed stride keeps the sample the same for every
#: seed.
GRADE_FAULT_STRIDE = 4

#: Artefacts the serving workload's cache holds (circuits x seeds).
SERVE_CIRCUITS = ("s27", "s386", "s400")
SERVE_SEEDS = (1, 2)
SERVE_REQUESTS = 1000          # per repetition
#: Request mix: (kind, weight); "conditional" revalidates a known ETag.
SERVE_MIX = (("table1", 4), ("conditional", 3), ("flow", 2),
             ("artifact", 1))

_COVERAGE = re.compile(r"(\d+)/(\d+) faults")


class SetupDone(Exception):
    """Ends a set-up-only probe once set-up is complete."""


@dataclasses.dataclass
class Context:
    """What one repetition knows about its run."""

    seed: int
    work_dir: str
    spawn_t: float             # parent's time.monotonic() at spawn
    trace: bool = False
    setup_only: bool = False
    setup_s: float | None = None

    def setup_done(self) -> None:
        """Mark the end of set-up (process start to first timed op)."""
        self.setup_s = time.monotonic() - self.spawn_t
        if self.setup_only:
            raise SetupDone

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.work_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        return path


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def resolved_runtime() -> dict[str, Any]:
    """The engine knobs as the program resolves them by default."""
    from repro.chaos import chaos_enabled
    from repro.obs.trace import resolve_trace
    from repro.simulation.backends import (
        resolve_backend,
        resolve_fault_backend,
    )
    from repro.simulation.episode import episode_batching_enabled
    from repro.simulation.fault_episode import fault_planning_enabled
    from repro.simulation.streaming import resolve_stream_budget
    return {
        "backend": resolve_backend(None).name,
        "fault_backend": resolve_fault_backend(None).name,
        "episode_batch": episode_batching_enabled(None),
        "fault_plan": fault_planning_enabled(None),
        "stream_budget": resolve_stream_budget(None),
        "trace": resolve_trace(None),
        "chaos": chaos_enabled(),
    }


def _record(**fields: Any) -> dict[str, Any]:
    fields.setdefault("failed", 0)
    fields["runtime"] = resolved_runtime()
    return fields


# ---------------------------------------------------------------------- #
# table1_cold
# ---------------------------------------------------------------------- #


def _campaign_summary(artefacts: list[dict[str, Any]]) -> dict[str, Any]:
    rows = [artefact["row"] for artefact in artefacts]
    detected = faults = 0
    for artefact in artefacts:
        found = _COVERAGE.search(artefact["summary"])
        detected += int(found.group(1))
        faults += int(found.group(2))
    # Shape pins: proposed below traditional in both columns.
    bad = sum(1 for row in rows
              if not (row["prop_dynamic"] < row["trad_dynamic"]
                      and row["prop_static"] < row["trad_static"]))
    return {
        "rows": rows,
        "bad_rows": bad,
        "quality": {
            "fault_coverage": detected / faults,
            "dynamic_reduction_pct": statistics.fmean(
                row["imp_trad_dynamic"] for row in rows),
            "static_reduction_pct": statistics.fmean(
                row["imp_trad_static"] for row in rows),
        },
        "provenance": {artefact["circuit"]: artefact["provenance"]
                       for artefact in artefacts},
    }


def table1_cold(ctx: Context) -> dict[str, Any]:
    """A cold Table-I campaign: fresh cache, default config, 2 jobs."""
    from repro.campaign import CampaignJob, ResultCache, run_flow_jobs

    # The netlists stay at loader seed 1 (as in the ablations) and the
    # seed drives the flow: with a netlist per seed, the campaign's work
    # and quality figures spread by up to 20% across seeds.
    job_list = [CampaignJob(job_id=circuit, circuit=circuit,
                            seed=ctx.seed, circuit_seed=TABLE1_NETLIST_SEED)
                for circuit in TABLE1_CIRCUITS]
    jobs = min(2, cpu_count())

    def campaign(jobs: int, name: str):
        artefacts, _records, wall_s, worker_s = run_flow_jobs(
            job_list, jobs=jobs, cache=ResultCache(ctx.fresh_dir(name)))
        return artefacts, wall_s, worker_s

    ctx.setup_done()
    artefacts, wall_s, worker_s = campaign(jobs, "table1-cache")
    summary = _campaign_summary(artefacts)
    record = _record(
        wall_s=wall_s, serial_s=worker_s,
        items_ms=[1000.0 * a["elapsed_s"] for a in artefacts],
        n_items=len(artefacts), failed=summary["bad_rows"],
        quality=summary["quality"], outputs=summary["rows"],
        provenance=summary["provenance"], jobs=jobs)
    if ctx.trace:
        # The traced run is serial and in-process, so the wrappers see
        # every call a pool worker would otherwise make.
        tracer = layers.install(Tracer())
        try:
            traced, traced_wall_s, traced_worker_s = campaign(
                1, "table1-traced")
        finally:
            tracer.uninstall()
        if _campaign_summary(traced)["rows"] != summary["rows"]:
            record["failed"] += 1
            record["checks"] = ["traced serial rows differ from the "
                                "parallel run"]
        record["layers"] = layers.metrics(
            tracer, traced_wall_s,
            **{"campaign.parallel_efficiency":
               worker_s / (wall_s * jobs)})
        record["traced_serial_s"] = traced_worker_s
        record["tracer"] = tracer
    return record


# ---------------------------------------------------------------------- #
# grade_large
# ---------------------------------------------------------------------- #


def grade_large(ctx: Context) -> dict[str, Any]:
    """Power replay under two policies, then drop-mode fault grading."""
    tracer = layers.install(Tracer()) if ctx.trace else None
    import numpy as np

    # repro.power cannot be the first repro package a process imports
    # (a circular import through repro.power.peak), so the scan view
    # and ATPG modules load first, as they do in the flow.
    from repro.atpg.collapse import collapse_faults
    from repro.atpg.faults import all_faults
    from repro.scan.testview import ScanDesign, TestVector
    from repro.simulation.bitsim import pack_input_vectors
    from repro.simulation.fault_episode import FaultSimSession

    import repro.benchgen.loader as loader  # noqa: I001 - order above
    import repro.power.scanpower as scanpower
    import repro.techmap.mapper as mapper

    circuit = mapper.technology_map(loader.load_circuit(GRADE_CIRCUIT,
                                                        seed=1))
    design = ScanDesign.full_scan(circuit)
    rng = np.random.default_rng(ctx.seed)
    vectors = [
        TestVector(
            pi_values=dict(zip(circuit.inputs, map(
                int, rng.integers(0, 2, len(circuit.inputs))))),
            scan_state=tuple(map(
                int, rng.integers(0, 2, design.chain.length))))
        for _ in range(GRADE_VECTORS)]
    words, n = pack_input_vectors(circuit, [
        {**v.pi_values, **design.chain.state_as_dict(v.scan_state)}
        for v in vectors])
    faults = collapse_faults(circuit,
                             all_faults(circuit))[::GRADE_FAULT_STRIDE]
    traditional = scanpower.ShiftPolicy(name="traditional")
    # Proposed-style shift: PIs held and every pseudo-input muxed to a
    # fixed tie value, so the same test set replays with blocked logic.
    fixed_tie = scanpower.ShiftPolicy(
        name="fixed-tie",
        pi_values={pi: 0 for pi in circuit.inputs},
        mux_ties={q: 0 for q in design.chain.q_lines})
    ctx.setup_done()

    started = time.perf_counter()
    reports = [scanpower.evaluate_scan_power(design, vectors, policy)
               for policy in (traditional, fixed_tie)]
    replayed = time.perf_counter()
    session = FaultSimSession(circuit)
    graded = session.simulate(faults, words, n, drop=True)
    wall_s = time.perf_counter() - started
    outputs = {
        "detected": graded.n_detected,
        "faults": len(faults),
        "reports": [[r.dynamic_uw_per_hz, r.static_uw,
                     r.total_transitions, r.mean_leakage_na]
                    for r in reports],
    }
    dynamic, static = reports[1].improvement_vs(reports[0])
    record = _record(
        wall_s=wall_s, serial_s=wall_s, items_ms=[1000.0 * wall_s],
        n_items=1,
        quality={"fault_coverage": graded.n_detected / len(faults),
                 "dynamic_reduction_pct": dynamic,
                 "static_reduction_pct": static},
        outputs=outputs,
        provenance={GRADE_CIRCUIT: loader.circuit_provenance(
            GRADE_CIRCUIT)},
        replay_s=replayed - started)
    if tracer is not None:
        again = session.simulate(faults, words, n, drop=True)
        if again.n_detected != graded.n_detected:
            record["failed"] += 1
            record["checks"] = ["second grading call disagrees"]
        tracer.uninstall()
        record["layers"] = layers.metrics(tracer, wall_s)
        record["tracer"] = tracer
    return record


# ---------------------------------------------------------------------- #
# serve_warm
# ---------------------------------------------------------------------- #


def fill(ctx: Context) -> dict[str, Any]:
    """Fill the serving cache (run once per benchmark run, untimed)."""
    from repro.campaign import CampaignSpec, run_campaign
    started = time.monotonic()
    run_campaign(CampaignSpec(circuits=SERVE_CIRCUITS, seeds=SERVE_SEEDS,
                              name="perfbench-serve"),
                 jobs=1, cache_dir=serve_cache_dir(ctx))
    return {"fill_s": time.monotonic() - started}


def serve_cache_dir(ctx: Context) -> str:
    return os.path.join(ctx.work_dir, "serve-cache")


def fetch(port: int, target: str, etag: str | None = None
          ) -> tuple[int, dict[str, str], bytes, float]:
    """One GET on a fresh connection: ``(status, headers, body, s)``.

    The latency runs from connecting to the last byte (the server
    closes every connection after one response).
    """
    request = f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    if etag is not None:
        request += f"If-None-Match: {etag}\r\n"
    started = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall((request + "\r\n").encode())
        chunks = []
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
    elapsed = time.perf_counter() - started
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, body, elapsed


def _etag(body: bytes) -> str:
    return f'"{hashlib.sha256(body).hexdigest()}"'


def _check(response, expect_status: int, expect_body: bytes,
           expect_etag: str) -> bool:
    status, headers, body, _ = response
    if status != expect_status or headers.get("etag") != expect_etag:
        return False
    if status == 200:
        return body == expect_body and _etag(body) == expect_etag
    return not body


def serve_warm(ctx: Context) -> dict[str, Any]:
    """A closed-loop client against the artifact service."""
    tracer = layers.install(Tracer()) if ctx.trace else None
    from repro.benchgen.loader import circuit_provenance
    from repro.campaign.cache import ResultCache
    from repro.campaign.service import ArtifactService, ServiceServer

    service = ArtifactService(ResultCache(serve_cache_dir(ctx)))
    server = ServiceServer(service)
    port = server.start()
    try:
        # Warm-up pass (set-up): learn every body, ETag and cache key.
        known: dict[str, tuple[bytes, str]] = {}
        keys: dict[tuple[str, int], str] = {}
        rows, detected, faults = [], 0, 0
        for circuit in SERVE_CIRCUITS:
            for seed in SERVE_SEEDS:
                for endpoint in ("table1", "flow"):
                    target = f"/{endpoint}/{circuit}?seed={seed}"
                    status, headers, body, _ = fetch(port, target)
                    if status != 200:
                        raise RuntimeError(f"{target}: HTTP {status}")
                    known[target] = (body, headers["etag"])
                    payload = json.loads(body)
                    if endpoint == "table1":
                        rows.append(payload["row"])
                        keys[circuit, seed] = payload["key"]
                    else:
                        found = _COVERAGE.search(payload["summary"])
                        detected += int(found.group(1))
                        faults += int(found.group(2))
                # /artifact/<key> answers with the full flow artefact.
                known[f"/artifact/{keys[circuit, seed]}"] = known[target]
        plan = _request_plan(ctx.seed, keys)
        connections = max(1, min(4, cpu_count() - 1))
        ctx.setup_done()
        latencies, failed, conditional, not_modified, wall_s = \
            _closed_loop(port, plan, known, connections)
    finally:
        server.stop()
    record = _record(
        wall_s=wall_s, serial_s=sum(latencies) / 1000.0,
        items_ms=latencies, n_items=len(plan), failed=failed,
        quality={"fault_coverage": detected / faults,
                 "dynamic_reduction_pct": statistics.fmean(
                     row["imp_trad_dynamic"] for row in rows),
                 "static_reduction_pct": statistics.fmean(
                     row["imp_trad_static"] for row in rows)},
        outputs={target: etag for target, (_, etag) in
                 sorted(known.items())},
        provenance={c: circuit_provenance(c) for c in SERVE_CIRCUITS},
        connections=connections)
    if tracer is not None:
        tracer.uninstall()
        client_ms = statistics.fmean(latencies)
        dispatch_ms = tracer.mean_ms("campaign.dispatch")
        record["layers"] = layers.metrics(
            tracer, wall_s,
            **{"campaign.transport_ms": client_ms - dispatch_ms,
               "campaign.not_modified_ratio":
                   not_modified / conditional if conditional else 0.0})
        record["tracer"] = tracer
    return record


def _request_plan(seed: int, keys: dict[tuple[str, int], str]
                  ) -> list[tuple[str, bool]]:
    """The seeded request mix: ``(target, conditional)`` pairs."""
    rng = random.Random(seed)
    pairs = sorted(keys)
    kinds = [kind for kind, _ in SERVE_MIX]
    weights = [weight for _, weight in SERVE_MIX]
    plan = []
    for _ in range(SERVE_REQUESTS):
        kind = rng.choices(kinds, weights)[0]
        circuit, seed_ = rng.choice(pairs)
        if kind == "artifact":
            plan.append((f"/artifact/{keys[(circuit, seed_)]}", False))
        elif kind == "flow":
            plan.append((f"/flow/{circuit}?seed={seed_}", False))
        else:
            plan.append((f"/table1/{circuit}?seed={seed_}",
                         kind == "conditional"))
    return plan


def _closed_loop(port: int, plan: list[tuple[str, bool]],
                 known: dict[str, tuple[bytes, str]], connections: int
                 ) -> tuple[list[float], int, int, int, float]:
    """Each client sends its next request when the previous answered."""
    latencies: list[float] = []
    counts = {"failed": 0, "conditional": 0, "not_modified": 0}
    lock = threading.Lock()
    pending = iter(plan)

    def client() -> None:
        while True:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            target, conditional = item
            body, etag = known[target]
            try:
                response = fetch(port, target,
                                 etag if conditional else None)
                ok = _check(response, 304 if conditional else 200,
                            body, etag)
            except OSError:
                response, ok = None, False
            with lock:
                if response is not None:
                    latencies.append(1000.0 * response[3])
                counts["failed"] += not ok
                counts["conditional"] += conditional
                counts["not_modified"] += bool(
                    conditional and response and response[0] == 304)

    threads = [threading.Thread(target=client) for _ in range(connections)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    return (latencies, counts["failed"], counts["conditional"],
            counts["not_modified"], wall_s)


WORKLOADS = {
    "table1_cold": table1_cold,
    "grade_large": grade_large,
    "serve_warm": serve_warm,
}
