"""Tests for the aggregated public API surface."""

import pytest

import repro


class TestLazyExports:
    def test_version(self):
        assert repro.__version__

    def test_core_symbols_accessible(self):
        for name in ("Circuit", "GateType", "ProposedFlow", "FlowConfig",
                     "load_circuit", "run_table1", "TechParams",
                     "evaluate_scan_power", "generate_tests"):
            assert getattr(repro, name) is not None

    def test_dir_includes_api(self):
        names = dir(repro)
        assert "ProposedFlow" in names
        assert "parse_bench" in names

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.does_not_exist

    def test_quickstart_surface_works_together(self):
        """The README quickstart, in miniature."""
        circuit = repro.load_circuit("s27")
        result = repro.ProposedFlow(repro.FlowConfig(seed=1)).run(circuit)
        assert "s27" in result.summary()

    def test_all_listed_symbols_resolve(self):
        from repro import _api
        for name in _api.__all__:
            assert getattr(repro, name) is not None, name


class TestCampaignServiceFacade:
    """Public surface: campaigns, service, runtime."""

    def test_campaign_symbols_accessible(self):
        for name in ("CampaignSpec", "CampaignJob", "CampaignResult",
                     "ResultCache", "load_spec", "run_campaign",
                     "ArtifactService", "ServiceServer", "run_server"):
            assert getattr(repro, name) is not None, name

    def test_runtime_symbols_accessible(self):
        for name in ("RuntimeOptions", "session_defaults",
                     "set_session_defaults", "using"):
            assert getattr(repro, name) is not None, name

    def test_facade_quickstart_works_together(self):
        """The README service quickstart, in miniature (no sockets)."""
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            spec = repro.CampaignSpec(
                circuits=("s27",), name="facade",
                base={"observability_samples": 16, "ivc_trials": 2,
                      "ivc_noise_samples": 2})
            result = repro.run_campaign(spec, cache_dir=tmp)
            assert result.n_executed == 1
            service = repro.ArtifactService(repro.ResultCache(tmp))
            assert service.cache.get(
                result.records[0].cache_key) is not None

    def test_using_scopes_runtime_options(self):
        with repro.using(chaos="seed=1,manifest.write=0.5"):
            assert repro.session_defaults().chaos == \
                "seed=1,manifest.write=0.5"
        assert repro.session_defaults().chaos is None
