"""Tests for circuit-level leakage estimation."""

import itertools

import numpy as np
import pytest

import sample_leakage_reference as sample_reference
from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.leakage.estimator import (
    circuit_leakage_na,
    expected_leakage_na,
    leakage_power_uw,
    per_sample_leakage,
    state_sample_leakage,
)
from repro.netlist.gates import X
from repro.simulation.backends import simulate_state
from repro.simulation.bitsim import pack_input_vectors, random_input_words
from repro.simulation.eval2 import comb_input_lines, simulate_comb
from repro.simulation.values import mask
from repro.utils.rng import make_rng
from tests.atpg.gate_mix import sprinkle_gates
from tests.atpg.generate_podem_pins import TESTSET_CIRCUITS, mapped_circuit


class TestLeakagePowerConversion:
    def test_na_times_vdd(self):
        # 1000 nA at 0.9 V = 0.9 uW
        assert leakage_power_uw(1000.0, 0.9) == pytest.approx(0.9)

    def test_zero(self):
        assert leakage_power_uw(0.0, 0.9) == 0.0


class TestCircuitLeakage:
    def test_sums_per_gate_tables(self, s27_mapped, library):
        inputs = {line: 0 for line in comb_input_lines(s27_mapped)}
        values = simulate_comb(s27_mapped, inputs)
        total = circuit_leakage_na(s27_mapped, values, library)
        manual = 0.0
        for gate in s27_mapped.combinational_gates():
            pattern = tuple(values[s] for s in gate.inputs)
            manual += library.leakage_na(gate.gtype, pattern)
        assert total == pytest.approx(manual)

    def test_depends_on_input_state(self, s27_mapped, library):
        lines = comb_input_lines(s27_mapped)
        low = simulate_comb(s27_mapped, {line: 0 for line in lines})
        high = simulate_comb(s27_mapped, {line: 1 for line in lines})
        assert circuit_leakage_na(s27_mapped, low, library) != \
            circuit_leakage_na(s27_mapped, high, library)

    def test_positive(self, s27_mapped, library):
        lines = comb_input_lines(s27_mapped)
        values = simulate_comb(s27_mapped, {line: 0 for line in lines})
        assert circuit_leakage_na(s27_mapped, values, library) > 0


class TestExpectedLeakage:
    def test_no_x_equals_exact(self, s27_mapped, library):
        lines = comb_input_lines(s27_mapped)
        inputs = {line: 1 for line in lines}
        values = simulate_comb(s27_mapped, inputs)
        assert expected_leakage_na(s27_mapped, values, library) == \
            pytest.approx(circuit_leakage_na(s27_mapped, values, library))

    def test_all_x_is_average_of_corners_for_single_gate(self, library):
        from repro.netlist.circuit import Circuit
        from repro.netlist.gates import GateType
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.NAND, ("a", "b"))
        c.add_output("y")
        expected = expected_leakage_na(c, {}, library)
        table = library.leakage_table(GateType.NAND, 2)
        mean_nand = sum(table.values()) / 4
        assert expected == pytest.approx(mean_nand)

    def test_p_one_weighting(self, library):
        from repro.netlist.circuit import Circuit
        from repro.netlist.gates import GateType
        c = Circuit()
        c.add_input("a")
        c.add_gate("y", GateType.NOT, ("a",))
        c.add_output("y")
        inv = library.leakage_table(GateType.NOT, 1)
        leak = expected_leakage_na(c, {"a": X}, library, p_one=0.9)
        assert leak == pytest.approx(0.1 * inv[(0,)] + 0.9 * inv[(1,)])


class TestPerSampleLeakage:
    def test_matches_scalar_evaluation(self, s27_mapped, library):
        lines = comb_input_lines(s27_mapped)
        vectors = []
        for code in (0, 5, 127, 42):
            vectors.append({line: (code >> i) & 1
                            for i, line in enumerate(lines)})
        words, n = pack_input_vectors(s27_mapped, vectors)
        samples = per_sample_leakage(s27_mapped, words, n, library)
        assert samples.shape == (4,)
        for t, vector in enumerate(vectors):
            values = simulate_comb(s27_mapped, vector)
            assert samples[t] == pytest.approx(
                circuit_leakage_na(s27_mapped, values, library))

    def test_large_sample_count(self, s27_mapped, library):
        from repro.simulation.bitsim import random_input_words
        from repro.utils.rng import make_rng
        words = random_input_words(s27_mapped, 300, make_rng(0))
        samples = per_sample_leakage(s27_mapped, words, 300, library)
        assert samples.shape == (300,)
        assert (samples > 0).all()
        assert samples.std() > 0  # states genuinely differ


class TestPerEpisodeLeakage:
    def test_slices_match_per_episode_means(self, s27_mapped, library):
        from repro.leakage.estimator import per_episode_leakage
        from repro.scan.testview import ScanDesign
        from repro.simulation.episode import compile_episode_plan
        from tests.conftest import random_vectors

        design = ScanDesign.full_scan(s27_mapped)
        vectors = random_vectors(design, 5, seed=2)
        plan = compile_episode_plan(design, vectors)
        per_episode = per_episode_leakage(plan, library)
        assert per_episode.shape == (5,)
        # slicing the flat per-cycle vector by hand must agree exactly
        flat = per_sample_leakage(s27_mapped, plan.waveforms,
                                  plan.n_cycles, library)
        for i, (start, stop) in enumerate(plan.episode_bounds()):
            assert per_episode[i] == flat[start:stop].mean()


class TestStateSampleLeakageAgainstFrozen:
    """Per-line unpacking and per-cell-type LUTs leave every array
    byte-identical to the frozen per-gate pricing."""

    @pytest.mark.parametrize("name", TESTSET_CIRCUITS)
    def test_table1_circuits(self, name, library):
        circuit = mapped_circuit(name)
        for n, seed in ((1, 1), (257, 2)):
            words = random_input_words(circuit, n, make_rng(seed))
            _assert_matches_frozen(circuit, words, n, library)

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_netlists(self, seed, library):
        circuit = sprinkle_gates(generate_from_stats(
            Iscas89Stats("mix", 5, 2, 3, 40), seed), seed)
        for n in (1, 64, 65):
            words = random_input_words(circuit, n, make_rng(seed + n))
            _assert_matches_frozen(circuit, words, n, library)

    def test_constant_stimulus(self, s27_mapped, library):
        for value in (0, mask(70)):
            words = dict.fromkeys(comb_input_lines(s27_mapped), value)
            _assert_matches_frozen(s27_mapped, words, 70, library)


def _assert_matches_frozen(circuit, words, n, library):
    got = state_sample_leakage(simulate_state(circuit, words, n), circuit,
                               library)
    want = sample_reference.state_sample_leakage(
        simulate_state(circuit, words, n), circuit, library)
    assert got.dtype == want.dtype and got.shape == want.shape == (n,)
    assert got.tobytes() == want.tobytes()
