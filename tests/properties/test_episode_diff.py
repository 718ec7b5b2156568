"""Differential properties of the batched episode engine.

The batched whole-test-set replay must be observationally identical to
the serial per-episode oracle (``tests/power/episode_reference.py``) —
packed waveforms bit for bit, transition counts exactly, leakage floats
IEEE-equal — on every registered backend and on mapped and unmapped
circuits.  Where the oracle raises (an unmapped design may hold a gate
wider than any library cell), every engine must raise the same error.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from power import episode_reference as serial

from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.errors import TimingError
from repro.netlist.circuit import Circuit
from repro.power.scanpower import (
    ShiftPolicy,
    episode_waveforms,
    evaluate_scan_power,
    per_cycle_energy_fj,
)
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.backends import available_backends
from repro.techmap.mapper import technology_map
from repro.utils.rng import make_rng

BACKENDS = sorted(available_backends())


def _random_design(seed: int, mapped: bool, n_gates: int = 30
                   ) -> ScanDesign:
    circuit: Circuit = generate_from_stats(
        Iscas89Stats("epi", 4, 2, 5, n_gates), seed)
    if mapped:
        circuit = technology_map(circuit)
    return ScanDesign.full_scan(circuit)


def _random_vectors(design: ScanDesign, n: int, seed: int
                    ) -> list[TestVector]:
    gen = make_rng(seed)
    return [
        TestVector(
            pi_values={pi: int(gen.integers(2))
                       for pi in design.circuit.inputs},
            scan_state=tuple(int(gen.integers(2))
                             for _ in range(design.chain.length)))
        for _ in range(n)
    ]


def _blocking_policy(design: ScanDesign, seed: int) -> ShiftPolicy:
    gen = make_rng(seed)
    return ShiftPolicy(
        name="blocked",
        pi_values={pi: int(gen.integers(2))
                   for pi in design.circuit.inputs},
        mux_ties={q: int(gen.integers(2))
                  for q in design.chain.q_lines
                  if gen.integers(2)})


def _outcome(mapped, call, *args, **kwargs):
    """``call``'s result, or the class and message of the
    :class:`TimingError` it raised on an unmapped design.  A mapped
    design has a library cell for every gate, so there the error
    propagates and fails the test."""
    try:
        return call(*args, **kwargs)
    except TimingError as exc:
        if mapped:
            raise
        return (TimingError, str(exc))


class TestBatchedEqualsSerial:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.booleans(),
           st.booleans())
    @example(38, 1, False, False)
    def test_waveforms_identical(self, seed, n_vectors, mapped,
                                 include_capture):
        design = _random_design(seed, mapped)
        vectors = _random_vectors(design, n_vectors, seed)
        policy = _blocking_policy(design, seed)
        reference = _outcome(mapped, serial.episode_waveforms, design,
                             vectors, policy, include_capture)
        for name in BACKENDS:
            batched = _outcome(mapped, episode_waveforms, design, vectors,
                               policy, include_capture, backend=name)
            assert batched == reference, name

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.booleans())
    # An unmapped design with a 5-input NAND: oracle and engines all
    # raise the same TimingError.
    @example(38, 1, False)
    def test_power_reports_identical(self, seed, n_vectors, mapped):
        design = _random_design(seed, mapped)
        vectors = _random_vectors(design, n_vectors, seed)
        policy = _blocking_policy(design, seed)
        reference = _outcome(mapped, serial.evaluate_scan_power, design,
                             vectors, policy, backend="bigint")
        for name in BACKENDS:
            batched = _outcome(mapped, evaluate_scan_power, design, vectors,
                               policy, backend=name)
            assert batched == reference, name

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_energy_profile_identical(self, seed, n_vectors):
        design = _random_design(seed, mapped=True)
        vectors = _random_vectors(design, n_vectors, seed)
        reference = serial.per_cycle_energy_fj(design, vectors)
        for name in BACKENDS:
            batched = per_cycle_energy_fj(design, vectors, backend=name)
            assert np.array_equal(batched, reference), name
