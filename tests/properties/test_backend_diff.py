"""Differential properties: every backend is bit-identical.

Random circuits from the benchmark generator are simulated on all
registered backends; packed waveforms, fault-detection words and
scan-power metrics must agree exactly (integers bit-for-bit, floats
IEEE-equal — the backends are required to accumulate in the same order).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.faults import all_faults
from repro.atpg.faultsim import fault_simulate
from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.cells.library import default_library
from repro.leakage.estimator import per_sample_leakage
from repro.leakage.observability import monte_carlo_observability
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.power.scanpower import ShiftPolicy, evaluate_scan_power
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.backends import available_backends, get_backend
from repro.simulation.bitsim import random_input_words
from repro.simulation.cyclesim import simulate_cycles
from repro.techmap.mapper import technology_map
from repro.utils.rng import make_rng

BACKENDS = sorted(available_backends())
OTHERS = [name for name in BACKENDS if name != "bigint"]


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
        reference = get_backend("bigint").simulate_packed(
            circuit, words, n_patterns)
        for name in OTHERS:
            got = get_backend(name).simulate_packed(
                circuit, words, n_patterns)
            assert got == reference, name

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
        results = [get_backend(name).simulate_packed(circuit, words, 130)
                   for name in BACKENDS]
        assert all(r == results[0] for r in results)


class TestFaultWordsIdentical:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 128), st.booleans())
    def test_fault_simulate(self, seed, n_patterns, mapped):
        """Detection words and ``remaining`` ordering are pinned across
        every registered backend, on mapped (NAND/NOR/INV) and unmapped
        (mixed-type) circuits."""
        circuit = _random_circuit(seed, mapped=mapped)
        faults = all_faults(circuit)
        words = random_input_words(circuit, n_patterns, make_rng(seed))
        reference = fault_simulate(circuit, faults, words, n_patterns,
                                   backend="bigint")
        for name in OTHERS:
            got = fault_simulate(circuit, faults, words, n_patterns,
                                 backend=name)
            assert got.detected == reference.detected, name
            assert list(got.detected) == list(reference.detected), name
            assert got.remaining == reference.remaining, name


class TestPowerMetricsIdentical:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_scan_power_report(self, seed, n_vectors):
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
        reference = evaluate_scan_power(design, vectors, policy,
                                        backend="bigint")
        for name in OTHERS:
            got = evaluate_scan_power(design, vectors, policy,
                                      backend=name)
            assert got.n_cycles == reference.n_cycles
            assert got.total_transitions == reference.total_transitions
            assert got.dynamic_uw_per_hz == reference.dynamic_uw_per_hz
            assert got.static_uw == reference.static_uw
            assert got.mean_leakage_na == reference.mean_leakage_na

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 100))
    def test_cycle_sim_accounting(self, seed, n_cycles):
        circuit = _random_circuit(seed, mapped=True)
        library = default_library()
        words = random_input_words(circuit, n_cycles, make_rng(seed))
        reference = simulate_cycles(circuit, words, n_cycles, library,
                                    keep_waveforms=True, backend="bigint")
        for name in OTHERS:
            got = simulate_cycles(circuit, words, n_cycles, library,
                                  keep_waveforms=True, backend=name)
            assert got.transitions == reference.transitions
            assert got.waveforms == reference.waveforms
            assert got.leakage_sum_na == reference.leakage_sum_na
            assert got.mean_leakage_na == reference.mean_leakage_na


class TestLeakageEstimatorsIdentical:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 64))
    def test_per_sample_leakage(self, seed, n_samples):
        circuit = _random_circuit(seed, mapped=True)
        words = random_input_words(circuit, n_samples, make_rng(seed))
        reference = per_sample_leakage(circuit, words, n_samples,
                                       backend="bigint")
        for name in OTHERS:
            got = per_sample_leakage(circuit, words, n_samples,
                                     backend=name)
            assert (got == reference).all(), name

    @pytest.mark.parametrize("other", OTHERS)
    def test_monte_carlo_observability(self, other):
        circuit = _random_circuit(3, mapped=True)
        reference = monte_carlo_observability(circuit, 64, seed=0,
                                              backend="bigint")
        got = monte_carlo_observability(circuit, 64, seed=0, backend=other)
        assert got == reference
