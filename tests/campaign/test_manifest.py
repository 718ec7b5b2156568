"""Campaign spec expansion and manifest persistence."""

import json

import pytest

from repro.campaign.manifest import (
    CampaignSpec,
    JobRecord,
    Manifest,
    load_spec,
)
from repro.core.config import FlowConfig
from repro.errors import ConfigError


class TestSpecExpansion:
    def test_single_point(self):
        jobs = CampaignSpec(circuits=("s27",)).expand()
        assert len(jobs) == 1
        assert jobs[0].job_id == "s27"
        assert jobs[0].seed == 1
        assert jobs[0].circuit_seed == 1

    def test_grid_order_is_circuit_major(self):
        spec = CampaignSpec(circuits=("a1", "b2"), seeds=(1, 2),
                            overrides=({}, {"ivc_trials": 2}))
        ids = [j.job_id for j in spec.expand()]
        assert ids == [
            "a1/seed1/cfg0", "a1/seed1/cfg1",
            "a1/seed2/cfg0", "a1/seed2/cfg1",
            "b2/seed1/cfg0", "b2/seed1/cfg1",
            "b2/seed2/cfg0", "b2/seed2/cfg1",
        ]

    def test_overrides_patch_base(self):
        spec = CampaignSpec(circuits=("s27",),
                            base={"ivc_trials": 4},
                            overrides=({"ivc_trials": 8},))
        config = spec.expand()[0].flow_config()
        assert config.ivc_trials == 8
        assert config.seed == 1  # from the seeds axis

    def test_seed_in_base_or_overrides_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            CampaignSpec(circuits=("s27",), base={"seed": 9})
        with pytest.raises(ConfigError, match="seeds"):
            CampaignSpec(circuits=("s27",),
                         overrides=({}, {"seed": 2}))

    def test_unknown_config_field_rejected_cleanly(self):
        from repro.campaign.manifest import CampaignJob
        job = CampaignJob(job_id="j", circuit="s27", seed=1,
                          circuit_seed=1,
                          config_kwargs={"ivc_trails": 2})  # typo
        with pytest.raises(ConfigError, match="ivc_trails"):
            job.flow_config()

    def test_retired_trace_field_rejected_cleanly(self):
        # tracing is a session knob (--trace / $REPRO_TRACE), never a
        # per-job config field
        job = CampaignSpec(circuits=("s27",),
                           base={"trace": "traces"}).expand()[0]
        with pytest.raises(ConfigError,
                           match=r"unknown FlowConfig field\(s\).*trace"):
            job.flow_config()

    def test_seed_zero_loads_circuit_with_seed_one(self):
        job = CampaignSpec(circuits=("s27",), seeds=(0,)).expand()[0]
        assert job.seed == 0
        assert job.circuit_seed == 1

    def test_atpg_override_round_trips(self):
        spec = CampaignSpec(
            circuits=("s27",),
            base={"atpg": {"seed": 3, "random_batch": 8,
                           "max_random_batches": 2, "min_batch_yield": 1,
                           "max_backtracks": 10, "podem_batch": 4,
                           "compaction": True}})
        config = spec.expand()[0].flow_config()
        assert config.atpg.random_batch == 8

    @pytest.mark.parametrize("kwargs", [
        {"circuits": ()},
        {"circuits": ("s27",), "seeds": ()},
        {"circuits": ("s27",), "overrides": ()},
    ])
    def test_empty_axes_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CampaignSpec(**kwargs)

    def test_digest_is_content_based(self):
        a = CampaignSpec(circuits=("s27",), seeds=(1,))
        b = CampaignSpec(circuits=("s27",), seeds=(1,))
        c = CampaignSpec(circuits=("s27",), seeds=(2,))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


class TestSpecFiles:
    def test_load_round_trip(self, tmp_path):
        spec = CampaignSpec(circuits=("s27", "s344"), seeds=(1, 2),
                            base={"ivc_trials": 2}, name="mini")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert load_spec(path) == spec

    def test_missing_circuits_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{\"seeds\": [1]}")
        with pytest.raises(ConfigError, match="circuits"):
            load_spec(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{\"circuits\": [\"s27\"], \"typo\": 1}")
        with pytest.raises(ConfigError, match="typo"):
            load_spec(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_spec(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_spec(tmp_path / "absent.json")


class TestManifest:
    def _record(self, job_id="s27", status="done", source="run"):
        return JobRecord(job_id=job_id, circuit="s27", seed=1,
                         config_hash=FlowConfig(seed=1).config_hash(),
                         cache_key="k", status=status, source=source,
                         wall_s=0.5)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = Manifest.open(path, "digest-a")
        manifest.record(self._record())
        reloaded = Manifest.open(path, "digest-a")
        assert set(reloaded.records) == {"s27"}
        assert reloaded.records["s27"].status == "done"

    def test_spec_mismatch_discards_records(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = Manifest.open(path, "digest-a")
        manifest.record(self._record())
        fresh = Manifest.open(path, "digest-b")
        assert fresh.records == {}

    def test_unreadable_manifest_starts_fresh(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{ not json")
        manifest = Manifest.open(path, "digest-a")
        assert manifest.records == {}

    def test_stats(self, tmp_path):
        manifest = Manifest.open(tmp_path / "m.json", "d")
        manifest.record(self._record("a", "done", "run"), save=False)
        manifest.record(self._record("b", "done", "cache"), save=False)
        manifest.record(self._record("c", "failed", None), save=False)
        stats = manifest.stats()
        assert stats["done"] == 2
        assert stats["executed"] == 1
        assert stats["cached"] == 1
        assert stats["failed"] == 1


class TestDuplicateGridPoints:
    def test_duplicate_circuits_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            CampaignSpec(circuits=("s27", "s27"))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            CampaignSpec(circuits=("s27",), seeds=(1, 1))

    def test_duplicate_overrides_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            CampaignSpec(circuits=("s27",),
                         overrides=({"ivc_trials": 2},
                                    {"ivc_trials": 2}))

    def test_distinct_overrides_accepted(self):
        spec = CampaignSpec(circuits=("s27",),
                            overrides=({}, {"ivc_trials": 2}))
        assert len(spec.expand()) == 2


class TestSpecKinds:
    def test_default_kind_is_flow(self):
        assert CampaignSpec(circuits=("s27",)).kind == "flow"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown campaign kind"):
            CampaignSpec(circuits=("s27",), kind="table9")

    def test_kind_round_trips(self):
        spec = CampaignSpec(circuits=("figure2",), kind="figure2")
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.kind == "figure2"

    def test_kind_changes_digest(self):
        flow = CampaignSpec(circuits=("figure2",))
        fig2 = CampaignSpec(circuits=("figure2",), kind="figure2")
        assert flow.digest() != fig2.digest()

    def test_figure2_spec_defaults_circuits(self):
        spec = CampaignSpec.from_dict({"kind": "figure2"})
        assert spec.circuits == ("figure2",)
        assert spec.expand()[0].job_id == "figure2"

    def test_flow_spec_still_requires_circuits(self):
        with pytest.raises(ConfigError, match="missing 'circuits'"):
            CampaignSpec.from_dict({"kind": "flow"})

    def test_figure2_spec_file(self, tmp_path):
        path = tmp_path / "fig2.json"
        path.write_text(json.dumps({"kind": "figure2", "name": "f2"}))
        spec = load_spec(path)
        assert spec.kind == "figure2"
        assert spec.name == "f2"


class TestFigure2Axes:
    """figure2 campaigns have no circuit/seed/override axes: a grid
    would run the identical computation once per point."""

    @pytest.mark.parametrize("kwargs", [
        {"circuits": ("a", "b")},
        {"circuits": ("figure2",), "seeds": (1, 2)},
        {"circuits": ("figure2",),
         "overrides": ({}, {"ivc_trials": 2})},
    ])
    def test_grids_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="no circuit/seed"):
            CampaignSpec(kind="figure2", **kwargs)

    def test_single_point_accepted(self):
        spec = CampaignSpec(circuits=("figure2",), kind="figure2",
                            seeds=(5,))
        assert len(spec.expand()) == 1

    def test_real_circuit_name_rejected(self):
        with pytest.raises(ConfigError, match="take no circuit"):
            CampaignSpec(circuits=("s27",), kind="figure2")
