"""Cross-process trace stitching across campaign pool workers.

The acceptance pins of the observability layer: a multi-process
campaign produces one stitched trace tree — single trace ID,
parent/child links across PIDs, zero orphan spans, one JSONL file per
recording process.
"""

from repro.campaign.manifest import CampaignSpec
from repro.campaign.runner import run_campaign
from repro.obs.trace import (
    enable,
    flush,
    read_spans,
    summarize_trace,
)

#: Keeps every real flow in the tens-of-milliseconds range (s27 only).
SMALL = {"observability_samples": 16, "ivc_trials": 2,
         "ivc_noise_samples": 2}


def small_spec(seeds=(1,), name="t"):
    return CampaignSpec(circuits=("s27",), seeds=seeds,
                        base=dict(SMALL), name=name)


def by_name(records):
    grouped = {}
    for record in records:
        grouped.setdefault(record["name"], []).append(record)
    return grouped


class TestPoolPropagation:
    def test_two_process_campaign_stitches_one_tree(self, tmp_path):
        enable(tmp_path / "trace")
        run_campaign(small_spec(seeds=(1, 2), name="pooled"), jobs=2)
        flush()

        summary = summarize_trace(tmp_path / "trace")
        assert summary.orphans == []
        assert len(summary.traces) == 1
        assert len(summary.processes) >= 2  # parent + pool workers

        records = by_name(read_spans(tmp_path / "trace"))
        [pool_map] = records["pool.map"]
        tasks = records["pool.task"]
        assert len(tasks) == 2
        for task in tasks:
            # The shipped parent_span_id is authoritative — not the
            # stack the fork worker inherited from its parent.
            assert task["parent"] == pool_map["span"]
            assert task["pid"] != pool_map["pid"]
        assert {task["parent"] for task in records["job.execute"]
                } <= {task["span"] for task in tasks}
        assert {rec["trace"] for rec in read_spans(tmp_path / "trace")
                } == {summary.traces[0]}
        # Every recording process wrote its own per-PID file.
        pids = {rec["pid"] for rec in read_spans(tmp_path / "trace")}
        files = {int(p.name.split("-")[1])
                 for p in (tmp_path / "trace").glob("trace-*.jsonl")}
        assert pids == files

    def test_campaign_run_span_tracks_wall(self, tmp_path):
        enable(tmp_path / "trace")
        result = run_campaign(small_spec(name="wall"), jobs=1)
        flush()
        records = by_name(read_spans(tmp_path / "trace"))
        [run_span] = records["campaign.run"]
        assert run_span["parent"] is None
        # Same monotonic pair: the manifest wall and the span agree.
        assert run_span["dur_s"] == result.wall_s
