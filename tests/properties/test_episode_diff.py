"""Differential properties of the batched episode engine.

The batched whole-test-set replay must be observationally identical to
the serial per-episode oracle (``tests/power/episode_reference.py``) —
packed waveforms bit for bit, transition counts exactly, leakage floats
IEEE-equal — on every registered backend and on mapped and unmapped
circuits.  Where the oracle raises (an unmapped design may hold a gate
wider than any library cell), every engine must raise the same error.

The big-int engine's fused replay (each row priced as it settles, dead
words freed) must equal ``run`` + ``state.transitions()`` /
``state.leakage_sum()`` on the same plan: key order, integer counts and
the bits of every leakage float.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from power import episode_reference as serial

from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.cells.library import default_library
from repro.errors import TimingError
from repro.netlist.circuit import Circuit
from repro.power.scanpower import (
    ShiftPolicy,
    episode_waveforms,
    evaluate_scan_power,
    per_cycle_energy_fj,
)
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.backends import available_backends, get_backend
from repro.simulation.episode import EpisodePlan, compile_episode_plan
from repro.simulation.schedule import cached_row_table
from repro.simulation.values import mask
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


def _truncated_plan(plan: EpisodePlan, n: int) -> EpisodePlan:
    """The first ``n`` cycles of ``plan`` as a one-episode plan."""
    return EpisodePlan(
        circuit=plan.circuit,
        waveforms={line: word & mask(n)
                   for line, word in plan.waveforms.items()},
        n_cycles=n, offsets=(0,), lengths=(n,))


def _state_replay(plan: EpisodePlan, collect_leakage: bool):
    """``run`` + state pricing on ``plan``: the unfused semantics."""
    state = get_backend("bigint").run(plan.circuit, plan.waveforms,
                                      plan.n_cycles)
    transitions = state.transitions()
    leakage = state.leakage_sum(default_library()) \
        if collect_leakage else {}
    return transitions, leakage


def _fused_replay(plan: EpisodePlan, collect_leakage: bool):
    batch = get_backend("bigint").simulate_episode_batch(
        plan, default_library(), collect_leakage=collect_leakage,
        stream_budget=0)
    assert batch.waveforms is None
    assert batch.n_cycles == plan.n_cycles
    return batch.transitions, batch.leakage_sum_na


def _exact(replay):
    """Keys in order, integers, and leakage floats as ``float.hex``."""
    if not isinstance(replay, tuple) or replay[0] is TimingError:
        return replay
    transitions, leakage = replay
    return (list(transitions.items()),
            [(line, value.hex()) for line, value in leakage.items()])


class TestFusedReplayEqualsState:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.booleans(),
           st.booleans())
    @example(38, 1, False, True)
    def test_fused_equals_run_and_state(self, seed, n_vectors, mapped,
                                        collect_leakage):
        design = _random_design(seed, mapped)
        vectors = _random_vectors(design, n_vectors, seed)
        policy = _blocking_policy(design, seed)
        plan = compile_episode_plan(
            design, vectors, pi_values=policy.pi_values,
            mux_ties=policy.mux_ties, backend="bigint")
        rows = cached_row_table(plan.circuit)
        # Every full-scan design has gate rows read by no gate (its
        # primary outputs and flop D lines): released where they settle.
        assert any(not sinks for sinks in rows.sinks[rows.n_inputs:])
        for n in (0, 1, 2, plan.n_cycles):
            cut = _truncated_plan(plan, n) if n < plan.n_cycles else plan
            want = _exact(_outcome(mapped, _state_replay, cut,
                                   collect_leakage))
            got = _exact(_outcome(mapped, _fused_replay, cut,
                                  collect_leakage))
            assert got == want, n
