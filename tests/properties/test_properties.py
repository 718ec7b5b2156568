"""Cross-cutting property-based tests (hypothesis) on core invariants.

These tests tie multiple subsystems together on randomly generated
circuits and stimuli; each property is an invariant the paper's method
relies on.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.core.find_pattern import find_controlled_input_pattern
from repro.netlist.gates import X
from repro.power.scanpower import ShiftPolicy, episode_waveforms
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.bitsim import simulate_packed
from repro.simulation.cyclesim import simulate_cycles
from repro.simulation.eval2 import comb_input_lines, simulate_comb
from repro.simulation.eval3 import simulate_comb3
from repro.simulation.values import bit_at, pack_bits
from repro.techmap.mapper import technology_map
from repro.techmap.verify import equivalence_check
from repro.utils.rng import make_rng


def _random_circuit(seed: int, n_pi=5, n_po=4, n_dff=5, n_gates=40):
    stats = Iscas89Stats(f"prop{seed}", n_pi, n_po, n_dff, n_gates)
    return generate_from_stats(stats, seed)


class TestSimulatorAgreement:
    """All four simulators implement the same semantics."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 2 ** 16 - 1))
    def test_packed_equals_scalar(self, seed, stimulus):
        circuit = _random_circuit(seed)
        lines = comb_input_lines(circuit)
        inputs = {line: (stimulus >> i) & 1
                  for i, line in enumerate(lines)}
        scalar = simulate_comb(circuit, inputs)
        words = {line: pack_bits([v]) for line, v in inputs.items()}
        packed = simulate_packed(circuit, words, 1)
        for line, value in scalar.items():
            assert bit_at(packed[line], 0) == value

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 2 ** 16 - 1))
    def test_three_valued_binary_equals_two_valued(self, seed, stimulus):
        circuit = _random_circuit(seed)
        lines = comb_input_lines(circuit)
        inputs = {line: (stimulus >> i) & 1
                  for i, line in enumerate(lines)}
        assert simulate_comb3(circuit, inputs) == \
            simulate_comb(circuit, inputs)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 2 ** 16 - 1),
           st.integers(1, 5))
    def test_x_abstraction_soundness(self, seed, stimulus, n_hidden):
        """Hide a few inputs as X: every binary conclusion of the
        3-valued sim must hold under all completions of the hidden
        inputs."""
        circuit = _random_circuit(seed, n_gates=25)
        lines = comb_input_lines(circuit)
        hidden = lines[:n_hidden]
        visible = {line: (stimulus >> i) & 1
                   for i, line in enumerate(lines) if line not in hidden}
        v3 = simulate_comb3(circuit, visible)
        for combo in itertools.product((0, 1), repeat=len(hidden)):
            full = dict(visible)
            full.update(zip(hidden, combo))
            v2 = simulate_comb(circuit, full)
            for line, value in v3.items():
                if value != X:
                    assert v2[line] == value


class TestMappingProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_mapping_equivalence_random(self, seed):
        circuit = _random_circuit(seed)
        mapped = technology_map(circuit)
        assert equivalence_check(circuit, mapped, n_random=64, seed=seed)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_mapping_bounds_arity(self, seed):
        circuit = _random_circuit(seed)
        mapped = technology_map(circuit, max_arity=3)
        for gate in mapped.combinational_gates():
            assert len(gate.inputs) <= 4  # NAND/NOR <= 3, MUX2 = 3
            if gate.gtype.value in ("NAND", "NOR"):
                assert len(gate.inputs) <= 3


class TestBlockingSoundness:
    """The paper's correctness core, on random circuits: every line the
    pattern search declares constant really is constant while the scan
    chain shifts arbitrary data."""

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_constant_lines_never_toggle_in_shift(self, seed):
        circuit = technology_map(_random_circuit(seed))
        design = ScanDesign.full_scan(circuit)
        controlled = set(circuit.inputs)
        sources = set(circuit.dff_outputs)
        pattern = find_controlled_input_pattern(
            circuit, controlled, sources, max_backtracks=20)

        rng = make_rng(seed)
        vectors = []
        for _ in range(4):
            pi_values = {pi: pattern.assignment.get(pi, 0)
                         for pi in circuit.inputs}
            state = tuple(int(rng.integers(2))
                          for _ in range(design.chain.length))
            vectors.append(TestVector(pi_values=pi_values,
                                      scan_state=state))
        policy = ShiftPolicy(
            name="check",
            pi_values={pi: pattern.assignment.get(pi, 0)
                       for pi in circuit.inputs},
            mux_ties={})
        waveforms, n = episode_waveforms(design, vectors, policy,
                                         False, None)
        sim = simulate_cycles(circuit, waveforms, n,
                              collect_leakage=False)
        for line, value in pattern.values.items():
            if value != X:
                assert sim.transitions.get(line, 0) == 0, \
                    f"{line} toggled despite binary value {value}"

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_assignment_is_subset_of_controlled(self, seed):
        circuit = technology_map(_random_circuit(seed))
        controlled = set(circuit.inputs)
        sources = set(circuit.dff_outputs)
        pattern = find_controlled_input_pattern(
            circuit, controlled, sources, max_backtracks=20)
        assert set(pattern.assignment) <= controlled
        check = simulate_comb3(circuit, pattern.assignment)
        assert check == pattern.values


class TestScanProtocolProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_capture_feeds_next_shift(self, seed, n_vectors):
        """The episode waveform generator must start every shift segment
        from the previous vector's captured response."""
        circuit = technology_map(_random_circuit(seed, n_gates=30))
        design = ScanDesign.full_scan(circuit)
        rng = make_rng(seed)
        vectors = []
        for _ in range(n_vectors):
            pi_values = {pi: int(rng.integers(2))
                         for pi in circuit.inputs}
            state = tuple(int(rng.integers(2))
                          for _ in range(design.chain.length))
            vectors.append(TestVector(pi_values=pi_values,
                                      scan_state=state))
        waveforms, n = episode_waveforms(
            design, vectors, ShiftPolicy(), True, None)
        length = design.chain.length
        # The first shift cycle of segment k shows the captured response
        # of vector k-1, shifted once with the new vector's first bit.
        state = (0,) * length
        cycle = 0
        for vector in vectors:
            expected = design.chain.load_states(state, vector.scan_state)
            for step_state in expected:
                for cell, bit in zip(design.chain.cells, step_state):
                    assert bit_at(waveforms[cell.q], cycle) == bit
                cycle += 1
            cycle += 1  # capture cycle
            state, _pos = design.capture(vector)
