"""Tests for FlowConfig validation."""

import dataclasses

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
        {"mux_delay_margin_ps": float("nan")},
        {"observability_samples": 0},
        {"mux_delay_margin_ps": float("inf")},
        {"mux_delay_margin_ps": float("-inf")},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FlowConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"max_backtracks": "5"},
        {"ivc_trials": 64.0},
        {"seed": None},
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

    def test_real_margin_accepted(self):
        assert FlowConfig(mux_delay_margin_ps=5).mux_delay_margin_ps == 5

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
        """Runtime knobs (tracing, chaos) never change results, so none
        is a FlowConfig field and none can reach the cache key; the
        retired ``stream_budget`` field is gone with its knob."""
        from repro.runtime import KNOBS
        fields = {field.name for field in dataclasses.fields(FlowConfig)}
        assert not fields & set(KNOBS)
        assert "stream_budget" not in fields
        with pytest.raises(TypeError, match="stream_budget"):
            FlowConfig(stream_budget=0)

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
