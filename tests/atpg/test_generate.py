"""Tests for the full ATPG pipeline (ATOM substitute)."""

import pytest

from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import all_faults
from repro.atpg.faultsim import fault_simulate
from repro.atpg.generate import AtpgConfig, generate_tests
from repro.benchgen import generate_circuit
from repro.errors import ConfigError
from repro.netlist import builders
from repro.scan.testview import ScanDesign
from repro.simulation.bitsim import pack_input_vectors
from repro.techmap.mapper import technology_map


class TestGenerateTests:
    def test_full_coverage_on_s27(self, s27_design):
        result = generate_tests(s27_design, AtpgConfig(seed=1))
        assert result.fault_coverage == 1.0
        assert result.n_untestable == 0
        assert result.vectors

    def test_full_coverage_on_toy(self, toy_mapped):
        design = ScanDesign.full_scan(toy_mapped)
        result = generate_tests(design, AtpgConfig(seed=1))
        assert result.testable_coverage == 1.0

    def test_reported_coverage_is_real(self, s27_design):
        """Re-simulate the returned vectors against the collapsed
        universe: the detection count must match the report."""
        result = generate_tests(s27_design, AtpgConfig(seed=2))
        circuit = s27_design.circuit
        universe = collapse_faults(circuit, all_faults(circuit))
        assignments = []
        for vector in result.vectors:
            values = dict(vector.pi_values)
            values.update(
                s27_design.chain.state_as_dict(vector.scan_state))
            assignments.append(values)
        words, n = pack_input_vectors(circuit, assignments)
        check = fault_simulate(circuit, universe, words, n)
        assert check.n_detected == result.n_detected

    def test_deterministic(self, s27_design):
        a = generate_tests(s27_design, AtpgConfig(seed=3))
        b = generate_tests(s27_design, AtpgConfig(seed=3))
        assert a.vectors == b.vectors

    def test_seed_changes_vectors(self, s27_design):
        a = generate_tests(s27_design, AtpgConfig(seed=1))
        b = generate_tests(s27_design, AtpgConfig(seed=4))
        assert a.vectors != b.vectors

    def test_compaction_shrinks_or_equals(self, s27_design):
        loose = generate_tests(s27_design,
                               AtpgConfig(seed=5, compaction=False))
        tight = generate_tests(s27_design,
                               AtpgConfig(seed=5, compaction=True))
        assert len(tight.vectors) <= len(loose.vectors)
        assert tight.n_detected == loose.n_detected

    def test_compaction_preserves_coverage(self, toy_mapped):
        design = ScanDesign.full_scan(toy_mapped)
        loose = generate_tests(design, AtpgConfig(seed=6, compaction=False))
        tight = generate_tests(design, AtpgConfig(seed=6, compaction=True))
        assert tight.n_detected == loose.n_detected

    def test_random_only_phase(self, s27_design):
        """With PODEM effectively disabled, coverage comes from random
        patterns alone and must still be substantial."""
        config = AtpgConfig(seed=7, max_backtracks=0,
                            max_random_batches=32)
        result = generate_tests(s27_design, config)
        assert result.fault_coverage > 0.8

    def test_summary_format(self, s27_design):
        result = generate_tests(s27_design, AtpgConfig(seed=1))
        text = result.summary()
        assert "vectors" in text
        assert "coverage" in text

    def test_vectors_well_formed(self, s27_design):
        result = generate_tests(s27_design, AtpgConfig(seed=1))
        for vector in result.vectors:
            assert set(vector.pi_values) == set(
                s27_design.circuit.inputs)
            assert len(vector.scan_state) == s27_design.chain.length


class TestAtpgConfigValidation:
    """Values that used to hang (``podem_batch=0``) or crash deep in
    the pipeline are refused up front."""

    @pytest.mark.parametrize("field, value", [
        ("podem_batch", 0),
        ("random_batch", 0),
        ("random_batch", -3),
        ("max_random_batches", -1),
        ("min_batch_yield", -1),
        ("max_backtracks", -1),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"AtpgConfig.{field}"):
            AtpgConfig(**{field: value})

    def test_boundary_values_accepted(self, s27_design):
        config = AtpgConfig(seed=1, podem_batch=1, random_batch=1,
                            max_random_batches=0, min_batch_yield=0,
                            max_backtracks=0)
        result = generate_tests(s27_design, config)
        assert (result.n_detected + result.n_untestable
                + result.n_aborted) == result.n_faults


def _table1_design(name: str) -> ScanDesign:
    circuit = builders.s27() if name == "s27" else generate_circuit(name, 1)
    return ScanDesign.full_scan(technology_map(circuit))


class TestFaultAccounting:
    """Every collapsed fault is detected, proven untestable, or aborted
    by PODEM and left undetected by the final set: exactly one of the
    three."""

    @pytest.mark.parametrize("name", ["s27", "s344"])
    def test_outcomes_partition_the_universe(self, name):
        result = generate_tests(_table1_design(name), AtpgConfig(seed=1))
        assert (result.n_detected + result.n_untestable
                + result.n_aborted) == result.n_faults

    def test_collaterally_detected_aborts_count_once(self):
        # s641 at seed 1: 8 PODEM aborts are detected by later vectors;
        # they count as detected only.  The SAT screen proves 95 more
        # aborts redundant, which leaves 8 aborted and undetected.
        result = generate_tests(_table1_design("s641"), AtpgConfig(seed=1))
        assert (result.n_detected, result.n_untestable,
                result.n_aborted) == (546, 149, 8)
        assert (result.n_detected + result.n_untestable
                + result.n_aborted) == result.n_faults == 703
        assert result.summary().endswith("149 untestable, 8 aborted)")

    def test_legacy_final_simulation_agrees(self):
        design = _table1_design("s344")
        planned = generate_tests(design, AtpgConfig(seed=1),
                                 fault_plan=True)
        legacy = generate_tests(design, AtpgConfig(seed=1),
                                fault_plan=False)
        assert planned.n_aborted == legacy.n_aborted
        assert planned.n_detected == legacy.n_detected
        assert (legacy.n_detected + legacy.n_untestable
                + legacy.n_aborted) == legacy.n_faults


class TestFaultPlanToggle:
    """The planned fault x pattern replay must never change the
    generated test set — the legacy per-batch loop is the pinned
    reference."""

    def test_plan_on_equals_legacy(self, s27_design):
        legacy = generate_tests(s27_design, AtpgConfig(seed=1),
                                fault_plan=False)
        planned = generate_tests(s27_design, AtpgConfig(seed=1),
                                 fault_plan=True)
        assert planned.vectors == legacy.vectors
        assert planned.n_detected == legacy.n_detected
        assert planned.n_untestable == legacy.n_untestable
        assert planned.n_aborted == legacy.n_aborted

    def test_plan_on_equals_legacy_without_compaction(self, s27_design):
        """With compaction off there is no detection matrix to reuse;
        the plan path must fall back to the final drop-mode pass."""
        config = AtpgConfig(seed=2, compaction=False)
        legacy = generate_tests(s27_design, config, fault_plan=False)
        planned = generate_tests(s27_design, config, fault_plan=True)
        assert planned.vectors == legacy.vectors
        assert planned.n_detected == legacy.n_detected

    def test_matrix_reuse_skips_final_simulation(self, s27_design,
                                                 monkeypatch):
        """On the plan path the final coverage accounting reads the
        compaction matrix: exactly one no-drop call, no trailing
        drop-mode call on the compacted set."""
        from repro.simulation.fault_episode import FaultSimSession

        calls = []
        original = FaultSimSession.simulate

        def spy(self, faults, words, n, drop=True):
            calls.append(drop)
            return original(self, faults, words, n, drop=drop)

        monkeypatch.setattr(FaultSimSession, "simulate", spy)
        generate_tests(s27_design, AtpgConfig(seed=1), fault_plan=True)
        assert calls.count(False) == 1  # the compaction matrix
        planned_calls = list(calls)
        calls.clear()
        generate_tests(s27_design, AtpgConfig(seed=1), fault_plan=False)
        # legacy runs one extra drop-mode pass after the matrix
        assert len(calls) == len(planned_calls) + 1

    def test_coverage_on_env_toggle(self, s27_design, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "0")
        legacy = generate_tests(s27_design, AtpgConfig(seed=3))
        monkeypatch.setenv("REPRO_FAULT_PLAN", "1")
        planned = generate_tests(s27_design, AtpgConfig(seed=3))
        assert planned.vectors == legacy.vectors
        assert planned.n_detected == legacy.n_detected


class TestSharedPoolRouting:
    """ATPG's inner fault-simulation loop rides the shared worker pool
    by default when a sharding fault backend would actually split the
    collapsed universe."""

    def test_sharded_atpg_engages_shared_pool(self, s27_design):
        from repro.campaign.pool import (
            active_shared_pool,
            shutdown_shared_pool,
        )
        from repro.simulation.backends import ShardedBackend

        shutdown_shared_pool()
        assert active_shared_pool() is None
        reference = generate_tests(s27_design, AtpgConfig(seed=1))
        backend = ShardedBackend(shards=2, min_faults_per_shard=1)
        try:
            sharded = generate_tests(s27_design, AtpgConfig(seed=1),
                                     fault_backend=backend)
            # the pool persists for subsequent calls on warm workers
            assert active_shared_pool() is not None
            # ... but is detached from the backend again afterwards
            assert backend.pool is None
        finally:
            shutdown_shared_pool()
        assert sharded.vectors == reference.vectors
        assert sharded.n_detected == reference.n_detected

    def test_inline_fault_lists_spawn_no_pool(self, s27_design):
        from repro.campaign.pool import (
            active_shared_pool,
            shutdown_shared_pool,
        )
        from repro.simulation.backends import ShardedBackend

        shutdown_shared_pool()
        # s27's collapsed universe is far below one shard's worth, so
        # the meta-backend runs inline and no pool should be spawned.
        backend = ShardedBackend(shards=2, min_faults_per_shard=10_000)
        generate_tests(s27_design, AtpgConfig(seed=1),
                       fault_backend=backend)
        assert active_shared_pool() is None

    def test_explicit_pool_is_honoured(self, s27_design):
        from repro.campaign.pool import (
            WorkerPool,
            active_shared_pool,
            shutdown_shared_pool,
        )
        from repro.simulation.backends import ShardedBackend

        shutdown_shared_pool()
        with WorkerPool(processes=2) as pool:
            backend = ShardedBackend(shards=2, min_faults_per_shard=1,
                                     pool=pool)
            result = generate_tests(s27_design, AtpgConfig(seed=1),
                                    fault_backend=backend)
            # an attached pool wins: no shared pool gets created
            assert active_shared_pool() is None
            assert backend.pool is pool
        reference = generate_tests(s27_design, AtpgConfig(seed=1))
        assert result.vectors == reference.vectors
