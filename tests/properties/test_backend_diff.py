"""Differential properties: the engine against its frozen oracles.

Random circuits from the benchmark generator are simulated on the
product engine and on frozen test-side oracles: the name-keyed big-int
good machine and power pricing (``simulation/bigint_reference.py``),
the cone-ordered fault replay (``atpg/faultsim_reference.py``) and the
serial per-episode replay (``power/episode_reference.py``).
Packed waveforms, fault-detection words and power metrics must agree
exactly (integers bit for bit, floats IEEE-equal).
"""

from atpg import faultsim_reference
from hypothesis import given, settings, strategies as st
from power import episode_reference
from simulation import bigint_reference

from repro.atpg.faults import all_faults
from repro.atpg.faultsim import fault_simulate
from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.cells.library import default_library
from repro.leakage.estimator import circuit_leakage_na, per_sample_leakage
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.power.scanpower import ShiftPolicy, evaluate_scan_power
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.bitsim import random_input_words, simulate_packed
from repro.simulation.cyclesim import simulate_cycles
from repro.techmap.mapper import technology_map
from repro.utils.rng import make_rng


def _random_circuit(seed: int, n_gates: int = 40, mapped: bool = False
                    ) -> Circuit:
    circuit = generate_from_stats(
        Iscas89Stats("diff", 5, 3, 4, n_gates), seed)
    return technology_map(circuit) if mapped else circuit


class TestPackedWordsIdentical:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 200),
           st.booleans())
    def test_simulate_packed(self, seed, n_patterns, mapped):
        circuit = _random_circuit(seed, mapped=mapped)
        words = random_input_words(circuit, n_patterns, make_rng(seed))
        reference = bigint_reference.simulate_packed_bigint(
            circuit, words, n_patterns)
        got = simulate_packed(circuit, words, n_patterns)
        assert list(got.items()) == list(reference.items())

    def test_mux_and_const_gates(self):
        circuit = Circuit("muxy")
        a = circuit.add_input("a")
        b = circuit.add_input("b")
        s = circuit.add_input("s")
        circuit.add_gate("one", GateType.CONST1, ())
        circuit.add_gate("zero", GateType.CONST0, ())
        circuit.add_gate("m1", GateType.MUX2, (s, a, b))
        circuit.add_gate("m2", GateType.MUX2, (a, "one", "zero"))
        circuit.add_gate("y", GateType.XNOR, ("m1", "m2"))
        circuit.add_output("y")
        words = random_input_words(circuit, 130, make_rng(5))
        assert simulate_packed(circuit, words, 130) == \
            bigint_reference.simulate_packed_bigint(circuit, words, 130)


class TestFaultWordsIdentical:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 128), st.booleans())
    def test_fault_simulate(self, seed, n_patterns, mapped):
        """Detection words and ``remaining`` ordering equal the frozen
        cone-ordered replay over the oracle's good machine, on mapped
        (NAND/NOR/INV) and unmapped (mixed-type) circuits."""
        circuit = _random_circuit(seed, mapped=mapped)
        faults = all_faults(circuit)
        words = random_input_words(circuit, n_patterns, make_rng(seed))
        good = bigint_reference.simulate_packed_bigint(circuit, words,
                                                       n_patterns)
        reference = faultsim_reference.scalar_replay(circuit, faults, good,
                                                     n_patterns)
        got = fault_simulate(circuit, faults, words, n_patterns)
        assert got.detected == reference.detected
        assert list(got.detected) == list(reference.detected)
        assert got.remaining == reference.remaining


class TestPowerMetricsIdentical:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_scan_power_report(self, seed, n_vectors):
        """Traditional shift on mapped circuits equals the serial
        per-episode oracle, report for report."""
        circuit = _random_circuit(seed, mapped=True)
        design = ScanDesign.full_scan(circuit)
        gen = make_rng(seed)
        vectors = [
            TestVector(
                pi_values={pi: int(gen.integers(2))
                           for pi in design.circuit.inputs},
                scan_state=tuple(int(gen.integers(2))
                                 for _ in range(design.chain.length)))
            for _ in range(n_vectors)
        ]
        policy = ShiftPolicy(name="traditional")
        reference = episode_reference.evaluate_scan_power(design, vectors,
                                                          policy)
        got = evaluate_scan_power(design, vectors, policy)
        assert got == reference

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 100))
    def test_cycle_sim_accounting(self, seed, n_cycles):
        circuit = _random_circuit(seed, mapped=True)
        library = default_library()
        words = random_input_words(circuit, n_cycles, make_rng(seed))
        waveforms = bigint_reference.simulate_packed_bigint(
            circuit, words, n_cycles)
        transitions, leakage = bigint_reference.simulate_cycles(
            circuit, words, n_cycles, library)
        got = simulate_cycles(circuit, words, n_cycles, library,
                              keep_waveforms=True)
        assert list(got.transitions.items()) == list(transitions.items())
        assert got.waveforms == waveforms
        assert list(got.leakage_sum_na.items()) == list(leakage.items())
        assert got.mean_leakage_na == sum(leakage.values()) / n_cycles


class TestLeakageEstimatorsIdentical:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 64))
    def test_per_sample_leakage(self, seed, n_samples):
        circuit = _random_circuit(seed, mapped=True)
        words = random_input_words(circuit, n_samples, make_rng(seed))
        good = bigint_reference.simulate_packed_bigint(circuit, words,
                                                       n_samples)
        # Per sample, the scalar sum over the same gate order.
        reference = [
            circuit_leakage_na(circuit, {line: (word >> t) & 1
                                         for line, word in good.items()})
            for t in range(n_samples)]
        got = per_sample_leakage(circuit, words, n_samples)
        assert got.tolist() == reference
