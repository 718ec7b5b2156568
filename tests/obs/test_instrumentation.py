"""Instrumented hot paths: pinned timings, counters, digest hygiene.

The deprecation-sweep contract: timing fields that used to come from
their own ``Stopwatch``/``time.monotonic()`` bookkeeping now read the
surrounding span's measurement — so a ``--trace`` capture and the
reported numbers are the *same* clock reads, pinned here by exact
float equality against the JSONL records.
"""

from repro.campaign.cache import ResultCache
from repro.campaign.manifest import CampaignJob
from repro.campaign.runner import run_flow_jobs
from repro.core.config import FlowConfig
from repro.experiments.table1 import run_table1
from repro.obs.metrics import get_registry
from repro.obs.trace import enable, flush, read_spans

#: Keeps every real flow in the tens-of-milliseconds range (s27 only).
SMALL = {"observability_samples": 16, "ivc_trials": 2,
         "ivc_noise_samples": 2}


def small_job(seed=1):
    return CampaignJob(job_id=f"s27/seed{seed}", circuit="s27",
                       seed=seed, circuit_seed=seed,
                       config_kwargs=dict(SMALL))


def by_name(records):
    grouped = {}
    for record in records:
        grouped.setdefault(record["name"], []).append(record)
    return grouped


class TestPinnedTimings:
    def test_artefact_elapsed_is_the_execute_span(self, tmp_path):
        enable(tmp_path / "trace")
        artefacts, records, wall_s, _ = run_flow_jobs([small_job()],
                                                      jobs=1)
        flush()
        spans = by_name(read_spans(tmp_path / "trace"))
        [execute] = spans["job.execute"]
        assert artefacts[0]["elapsed_s"] == execute["dur_s"]
        [run_span] = spans["campaign.run"]
        assert wall_s == run_span["dur_s"]
        assert records[0].wall_s == execute["dur_s"]

    def test_job_phases_ride_the_manifest_not_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        artefacts, records, _, _ = run_flow_jobs([small_job()], jobs=1,
                                                 cache=cache)
        phases = records[0].phases
        assert phases and "flow.run" in phases and \
            "job.execute" in phases
        assert phases["job.execute"] >= phases["flow.run"] > 0.0
        # The cached artefact must stay bit-stable: no phase timings.
        [key] = cache.entries()
        assert "_phases" not in cache.get(key)
        assert "_phases" not in artefacts[0]

    def test_table1_wall_and_runtime_are_their_spans(self, tmp_path):
        enable(tmp_path / "trace")
        run = run_table1(circuits=["s27"],
                         config=FlowConfig(seed=1, **SMALL))
        flush()
        spans = by_name(read_spans(tmp_path / "trace"))
        [wall] = spans["table1.run"]
        assert run.wall_s == wall["dur_s"]
        [circuit] = spans["table1.circuit"]
        assert run.runtime_s["s27"] == circuit["dur_s"]
        assert circuit["parent"] == wall["span"]


class TestCacheCounters:
    def test_miss_store_hit_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 20

        def count(outcome):
            snap = get_registry().snapshot()
            return snap.get(
                f'repro_cache_ops_total{{outcome="{outcome}"}}', 0)

        assert cache.get(key) is None
        assert count("miss") == 1
        cache.put(key, {"kind": "flow", "row": {}})
        assert count("store") == 1
        assert cache.get(key) == {"kind": "flow", "row": {}}
        assert count("hit") == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
