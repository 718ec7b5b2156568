"""Tests for the full ATPG pipeline (ATOM substitute)."""

import compaction_reference as reference
import pytest

import repro.atpg.generate as generate_module
from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import all_faults
from repro.atpg.faultsim import fault_simulate
from repro.atpg.generate import AtpgConfig, generate_tests
from repro.atpg.sat import TESTABLE, UNKNOWN, SatResult
from repro.benchgen import generate_circuit
from repro.errors import AtpgError, ConfigError
from repro.netlist import builders
from repro.scan.testview import ScanDesign
from repro.simulation.bitsim import pack_input_vectors
from repro.simulation.eval2 import comb_input_lines
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
        """With no PODEM backtracks, coverage comes from random patterns,
        first-try PODEM tests and SAT models, and must be substantial."""
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
    (PODEM aborted and the SAT prover gave up) and left undetected by
    the final set: exactly one of the three."""

    @pytest.mark.parametrize("name", ["s27", "s344"])
    def test_outcomes_partition_the_universe(self, name):
        result = generate_tests(_table1_design(name), AtpgConfig(seed=1))
        assert (result.n_detected + result.n_untestable
                + result.n_aborted) == result.n_faults

    def test_collaterally_detected_aborts_count_once(self, monkeypatch):
        # s641 at seed 1: the SAT prover decides every PODEM screen
        # abort (redundant, or testable with its model as the test), so
        # nothing is left aborted.
        design = _table1_design("s641")
        result = generate_tests(design, AtpgConfig(seed=1))
        assert (result.n_detected, result.n_untestable,
                result.n_aborted) == (554, 149, 0)
        assert (result.n_detected + result.n_untestable
                + result.n_aborted) == result.n_faults == 703
        assert result.summary().endswith("149 untestable, 0 aborted)")

        # A prover that always gives up leaves PODEM's aborts; those a
        # later vector detects count as detected only.
        monkeypatch.setattr(generate_module.RedundancyProver, "prove",
                            lambda self, fault: SatResult(UNKNOWN, {}, 0))
        verdicts: list[str] = []
        verdict = generate_module._podem_verdict

        def spy(prover, fault, max_backtracks):
            outcome, path = verdict(prover, fault, max_backtracks)
            verdicts.append(outcome.status)
            return outcome, path

        monkeypatch.setattr(generate_module, "_podem_verdict", spy)
        gave_up = generate_tests(design, AtpgConfig(seed=1))
        assert 0 < gave_up.n_aborted < verdicts.count("aborted")
        assert (gave_up.n_detected + gave_up.n_untestable
                + gave_up.n_aborted) == gave_up.n_faults

    def test_legacy_final_simulation_agrees(self):
        """Coverage read off the compaction matrix equals the oracle's
        final drop-mode re-simulation of the kept set."""
        design = _table1_design("s344")
        planned = generate_tests(design, AtpgConfig(seed=1))
        legacy = reference.generate_tests(design, AtpgConfig(seed=1))
        assert planned.n_aborted == legacy.n_aborted
        assert planned.n_detected == legacy.n_detected
        assert (legacy.n_detected + legacy.n_untestable
                + legacy.n_aborted) == legacy.n_faults


class TestSatModelsAsTests:
    """A screen abort the SAT prover finds testable is detected by the
    prover's model, so only an "unknown" proof can leave it aborted."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", ["s27", "s344", "s382", "s444",
                                      "s510", "s641", "s713"])
    def test_no_aborts_on_the_cold_table1_rows(self, name, seed):
        result = generate_tests(_table1_design(name), AtpgConfig(seed=seed))
        assert result.n_aborted == 0
        assert result.testable_coverage == 1.0
        assert (result.n_detected + result.n_untestable) == result.n_faults

    def test_a_model_that_misses_its_fault_raises(self, monkeypatch):
        """A prover bug must not hide in the fault partition: a test
        that does not detect its own fault stops generation."""
        design = _table1_design("s344")
        circuit = design.circuit
        inputs = comb_input_lines(circuit)
        asked: list = []

        def missing_model(self, fault):
            for k in range(256):
                values = {line: (k >> i) & 1 ^ (i % 2)
                          for i, line in enumerate(inputs)}
                words, n = pack_input_vectors(circuit, [values])
                if fault_simulate(circuit, [fault], words, n).remaining:
                    asked.append(fault)
                    return SatResult(TESTABLE, values, 0)
            raise AssertionError(f"no vector misses {fault}")

        monkeypatch.setattr(generate_module.RedundancyProver, "prove",
                            missing_model)
        with pytest.raises(AtpgError, match="does not detect") as info:
            generate_tests(design, AtpgConfig(seed=1))
        assert asked and str(asked[0]) in str(info.value)


class TestFaultPlanToggle:
    """The planned fault x pattern replay must never change the
    generated test set — the per-batch oracle
    (``compaction_reference``) is the pinned reference."""

    def test_plan_on_equals_legacy(self, s27_design):
        legacy = reference.generate_tests(s27_design, AtpgConfig(seed=1))
        planned = generate_tests(s27_design, AtpgConfig(seed=1))
        assert planned.vectors == legacy.vectors
        assert planned.n_detected == legacy.n_detected
        assert planned.n_untestable == legacy.n_untestable
        assert planned.n_aborted == legacy.n_aborted

    def test_plan_on_equals_legacy_without_compaction(self, s27_design):
        """With compaction off the matrix keeps every vector; its
        coverage must equal the oracle's drop-mode pass."""
        config = AtpgConfig(seed=2, compaction=False)
        legacy = reference.generate_tests(s27_design, config)
        planned = generate_tests(s27_design, config)
        assert planned.vectors == legacy.vectors
        assert planned.n_detected == legacy.n_detected

    def test_matrix_reuse_skips_final_simulation(self, s27_design,
                                                 monkeypatch):
        """The final coverage accounting reads the compaction matrix:
        exactly one no-drop call, no trailing drop-mode call on the
        compacted set."""
        from repro.simulation.fault_episode import FaultSimSession

        calls = []
        original = FaultSimSession.simulate

        def spy(self, faults, words, n, drop=True):
            calls.append(drop)
            return original(self, faults, words, n, drop=drop)

        monkeypatch.setattr(FaultSimSession, "simulate", spy)
        generate_tests(s27_design, AtpgConfig(seed=1))
        assert calls.count(False) == 1  # the compaction matrix
        assert calls[-1] is False
        session = reference.BatchSession(s27_design.circuit)
        reference.generate_tests(s27_design, AtpgConfig(seed=1),
                                 session=session)
        # the oracle runs one extra drop-mode pass after the matrix
        assert session.drops == calls + [True]

    def test_compaction_matrix_skips_proven_untestable_faults(
            self, monkeypatch):
        """The no-drop matrix leaves out proven untestable faults (their
        rows are empty); the kept vectors and the detected count equal
        the oracle's, which simulates the whole universe.  s444 has the
        largest untestable share of the cold Table-I rows."""
        from repro.simulation.fault_episode import FaultSimSession

        sizes = []
        original = FaultSimSession.simulate

        def spy(self, faults, words, n, drop=True):
            if not drop:
                sizes.append(len(faults))
            return original(self, faults, words, n, drop=drop)

        monkeypatch.setattr(FaultSimSession, "simulate", spy)
        design = _table1_design("s444")
        planned = generate_tests(design, AtpgConfig(seed=1))
        legacy = reference.generate_tests(design, AtpgConfig(seed=1))
        assert planned.n_untestable > 0
        assert sizes == [planned.n_faults - planned.n_untestable]
        assert planned.vectors == legacy.vectors
        assert (planned.n_detected, planned.n_untestable,
                planned.n_aborted) == (legacy.n_detected,
                                       legacy.n_untestable,
                                       legacy.n_aborted)

    def test_coverage_on_env_toggle(self, s27_design, monkeypatch):
        """The retired ``$REPRO_FAULT_PLAN`` switches nothing: the test
        set under it still equals the oracle's."""
        monkeypatch.setenv("REPRO_FAULT_PLAN", "0")
        legacy = reference.generate_tests(s27_design, AtpgConfig(seed=3))
        planned = generate_tests(s27_design, AtpgConfig(seed=3))
        assert planned.vectors == legacy.vectors
        assert planned.n_detected == legacy.n_detected
