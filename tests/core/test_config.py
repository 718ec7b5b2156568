"""Tests for FlowConfig validation."""

import pytest

from repro.atpg.generate import AtpgConfig
from repro.core.config import FlowConfig
from repro.errors import ConfigError


class TestFlowConfig:
    def test_defaults_valid(self):
        config = FlowConfig()
        assert config.seed == 0
        assert config.use_observability_directive

    @pytest.mark.parametrize("kwargs", [
        {"observability_samples": 1},
        {"ivc_trials": 0},
        {"ivc_noise_samples": 0},
        {"max_backtracks": -1},
        {"mux_delay_margin_ps": -5.0},
        {"backend": "warp"},
        {"fault_backend": "warp"},
        {"shards": 0},
        {"shards": 2, "fault_backend": "numpy"},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FlowConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"shards": "2"},
        {"shards": 2.5},
        {"shards": True},
        {"stream_budget": "x"},
        {"stream_budget": 1.0},
        {"stream_budget": False},
        {"seed": "1"},
        {"seed": 1.0},
        {"seed": True},
        {"observability_samples": "9"},
        {"observability_samples": 9.0},
        {"ivc_trials": "64"},
        {"ivc_noise_samples": True},
        {"max_backtracks": None},
        {"mux_delay_margin_ps": "1"},
        {"mux_delay_margin_ps": None},
        {"mux_delay_margin_ps": True},
    ])
    def test_mistyped_values_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="must be"):
            FlowConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"backend": "warp"},
        {"shards": "2"},
        {"shards": True},
        {"shards": 2, "fault_backend": "numpy"},
        {"stream_budget": -1},
        {"stream_budget": "x"},
    ])
    def test_runtime_fields_checked_like_runtime_options(self, kwargs):
        """Both records run the one shared runtime-field check."""
        from repro.runtime import RuntimeOptions
        with pytest.raises(ConfigError) as flow_error:
            FlowConfig(**kwargs)
        with pytest.raises(ConfigError) as runtime_error:
            RuntimeOptions(**kwargs)
        assert str(flow_error.value) == str(runtime_error.value)

    def test_real_margin_accepted(self):
        assert FlowConfig(mux_delay_margin_ps=5).mux_delay_margin_ps == 5

    def test_fault_backend_defaults_to_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_BACKEND", raising=False)
        assert FlowConfig(backend="numpy") \
            .fault_simulation_backend() == "numpy"
        assert FlowConfig().fault_simulation_backend() is None

    def test_explicit_fault_backend_wins(self):
        config = FlowConfig(backend="bigint", fault_backend="numpy")
        assert config.fault_simulation_backend() == "numpy"

    def test_fault_env_outranks_plain_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_BACKEND", "numpy")
        config = FlowConfig(backend="bigint")
        assert config.fault_simulation_backend() == "numpy"

    def test_session_fault_backend_outranks_env(self, monkeypatch):
        from repro.runtime import using
        from repro.simulation.backends import default_fault_backend_name
        monkeypatch.setenv("REPRO_FAULT_BACKEND", "numpy")
        with using(fault_backend="bigint"):
            assert default_fault_backend_name() == "bigint"
            assert FlowConfig().fault_simulation_backend() == "bigint"
            assert FlowConfig(backend="numpy") \
                .fault_simulation_backend() == "bigint"

    def test_explicit_fault_backend_outranks_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_BACKEND", "numpy")
        config = FlowConfig(backend="bigint", fault_backend="bigint")
        assert config.fault_simulation_backend() == "bigint"

    def test_shards_imply_sharded_backend(self):
        from repro.simulation.backends import ShardedBackend
        spec = FlowConfig(shards=3).fault_simulation_backend()
        assert isinstance(spec, ShardedBackend)
        assert spec.shards == 3

    def test_sharded_without_shard_count_uses_registry_default(self):
        config = FlowConfig(fault_backend="sharded")
        assert config.fault_simulation_backend() == "sharded"

    def test_atpg_seed_derived_from_master(self):
        config = FlowConfig(seed=99)
        assert config.atpg_config().seed == 99

    def test_explicit_atpg_config_wins(self):
        atpg = AtpgConfig(seed=7, random_batch=16)
        config = FlowConfig(seed=99, atpg=atpg)
        assert config.atpg_config() is atpg

    def test_library_accessor(self):
        from repro.cells.library import default_library
        assert FlowConfig().library() is default_library()

    def test_frozen(self):
        config = FlowConfig()
        with pytest.raises(Exception):
            config.seed = 5


class TestConfigHash:
    """Canonical config hashing (campaign cache key ingredient)."""

    #: Pinned digest of the all-defaults config.  If this test fails
    #: you changed what the hash covers (new field, changed default,
    #: different canonicalization): bump the pin *and* expect every
    #: cached campaign artefact to be invalidated.
    DEFAULT_HASH = ("bfaa64e24cb6f29663371c7468fbc9c5"
                    "7c88f9755697633da951276b7d3a151f")

    def test_default_hash_pinned(self):
        assert FlowConfig().config_hash() == self.DEFAULT_HASH

    def test_stable_across_instances(self):
        assert FlowConfig(seed=5).config_hash() == \
            FlowConfig(seed=5).config_hash()

    def test_runtime_fields_excluded(self):
        base = FlowConfig().config_hash()
        assert FlowConfig(backend="numpy").config_hash() == base
        assert FlowConfig(fault_backend="numpy").config_hash() == base
        assert FlowConfig(shards=4).config_hash() == base
        # streaming and tracing never change results -> never
        # cache-key ingredients
        assert FlowConfig(stream_budget=0).config_hash() == base
        assert FlowConfig(stream_budget=1 << 20).config_hash() == base

    def test_result_relevant_fields_included(self):
        base = FlowConfig().config_hash()
        assert FlowConfig(seed=1).config_hash() != base
        assert FlowConfig(ivc_trials=7).config_hash() != base
        assert FlowConfig(reorder_inputs=False).config_hash() != base
        assert FlowConfig(mux_delay_margin_ps=1.0).config_hash() != base

    def test_explicit_default_atpg_equals_implicit(self):
        implicit = FlowConfig(seed=3)
        explicit = FlowConfig(seed=3, atpg=AtpgConfig(seed=3))
        assert implicit.config_hash() == explicit.config_hash()

    def test_atpg_changes_hash(self):
        base = FlowConfig(seed=3)
        tweaked = FlowConfig(seed=3,
                             atpg=AtpgConfig(seed=3, random_batch=8))
        assert base.config_hash() != tweaked.config_hash()
