"""Differential properties of the batched episode engine.

The batched whole-test-set replay must be observationally identical to
the serial per-episode oracle (``tests/power/episode_reference.py``) —
packed waveforms bit for bit, transition counts exactly, leakage floats
IEEE-equal — on every registered backend, on mapped and unmapped
circuits, and under forced pattern/cycle-axis sharding with real worker
processes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from power import episode_reference as serial

from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.netlist.circuit import Circuit
from repro.power.scanpower import (
    ShiftPolicy,
    episode_waveforms,
    evaluate_scan_power,
    per_cycle_energy_fj,
)
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.backends import (
    ShardedBackend,
    available_backends,
    get_backend,
)
from repro.simulation.episode import compile_episode_plan
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


class TestBatchedEqualsSerial:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.booleans(),
           st.booleans())
    def test_waveforms_identical(self, seed, n_vectors, mapped,
                                 include_capture):
        design = _random_design(seed, mapped)
        vectors = _random_vectors(design, n_vectors, seed)
        policy = _blocking_policy(design, seed)
        reference = serial.episode_waveforms(design, vectors, policy,
                                             include_capture)
        for name in BACKENDS:
            batched = episode_waveforms(design, vectors, policy,
                                        include_capture, backend=name)
            assert batched == reference, name

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.booleans())
    def test_power_reports_identical(self, seed, n_vectors, mapped):
        design = _random_design(seed, mapped)
        vectors = _random_vectors(design, n_vectors, seed)
        policy = _blocking_policy(design, seed)
        reference = serial.evaluate_scan_power(design, vectors, policy,
                                               backend="bigint")
        for name in BACKENDS:
            batched = evaluate_scan_power(design, vectors, policy,
                                          backend=name)
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


class TestPatternAxisSharding:
    """Forced cycle-axis chunks across real worker processes must be
    invisible: transitions, leakage floats and concatenated waveforms
    equal the unsharded big-int reference exactly."""

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 3),
           st.booleans())
    def test_sharded_chunks_are_invisible(self, seed, n_vectors,
                                          n_shards, mapped):
        design = _random_design(seed, mapped)
        vectors = _random_vectors(design, n_vectors, seed)
        policy = _blocking_policy(design, seed)
        plan = compile_episode_plan(
            design, vectors, pi_values=policy.pi_values,
            mux_ties=policy.mux_ties, backend="bigint")
        # A tiny element budget forces real multi-chunk dispatch.
        backend = ShardedBackend(shards=n_shards, episode_budget=4)
        assert backend.episode_chunks(plan) > 1
        reference = get_backend("bigint").simulate_episode_batch(
            plan, keep_waveforms=True)
        sharded = backend.simulate_episode_batch(plan,
                                                 keep_waveforms=True)
        assert sharded.transitions == reference.transitions
        assert sharded.leakage_sum_na == reference.leakage_sum_na
        assert list(sharded.leakage_sum_na) == \
            list(reference.leakage_sum_na)
        assert sharded.waveforms == reference.waveforms
        assert sharded.mean_leakage_na == reference.mean_leakage_na

    def test_sharded_report_via_public_entry(self):
        design = _random_design(11, mapped=True)
        vectors = _random_vectors(design, 4, 11)
        reference = serial.evaluate_scan_power(design, vectors,
                                               backend="bigint")
        backend = ShardedBackend(shards=2, episode_budget=4)
        batched = evaluate_scan_power(design, vectors, backend=backend)
        assert batched == reference

    def test_small_plan_runs_inline(self, s27_design, make_vectors):
        plan = compile_episode_plan(s27_design,
                                    make_vectors(s27_design, 2))
        backend = ShardedBackend(shards=4)
        assert backend.episode_chunks(plan) == 1
