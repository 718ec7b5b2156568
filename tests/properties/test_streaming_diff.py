"""Differential properties of out-of-core streaming plan evaluation.

A streamed evaluation — packed matrices produced lazily per window
under a ``stream_budget``, partials folded into an accumulator — must
be observationally identical to the resident path: episode transition
counts exactly, leakage floats IEEE-equal, kept waveforms bit for bit,
fault detection words bit for bit with ``remaining`` in exact input
order.  In both fault drop modes, under adversarially tiny budgets (one
window per cycle / per pattern word).
Peak memory must actually stay bounded: the ``tracemalloc`` test pins
that a streamed pass allocates a fraction of the resident matrix.
"""

import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.atpg.faults import all_faults
from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.errors import ConfigError, SimulationError, TimingError
from repro.netlist.circuit import Circuit
from repro.power.scanpower import evaluate_scan_power
from repro.runtime import set_session_defaults
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.backends import get_backend
from repro.simulation.bitsim import random_input_words
from repro.simulation.episode import compile_episode_plan
from repro.simulation.fault_episode import (
    FaultSimSession,
    compile_fault_episode_plan,
)
from repro.simulation.streaming import (
    DEFAULT_STREAM_BUDGET_ENV,
    PlanByteStore,
    episode_stream_windows,
    fault_stream_windows,
    resolve_stream_budget,
    state_elements,
    window_word,
)
from repro.techmap.mapper import technology_map
from repro.utils.rng import make_rng


@pytest.fixture(autouse=True)
def _no_session_budget():
    """Streaming stays opt-in per test; never leak a session default."""
    set_session_defaults(stream_budget=None)
    yield
    set_session_defaults(stream_budget=None)


def _random_design(seed: int, mapped: bool = False, n_gates: int = 30
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


def _random_circuit(seed: int, n_gates: int = 40, mapped: bool = False
                    ) -> Circuit:
    circuit = generate_from_stats(
        Iscas89Stats("fedge", 5, 3, 4, n_gates), seed)
    return technology_map(circuit) if mapped else circuit


def _assert_same_faults(got, reference, context) -> None:
    assert got.detected == reference.detected, context
    assert list(got.detected) == list(reference.detected), context
    assert got.remaining == reference.remaining, context


class TestBudgetResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_STREAM_BUDGET_ENV, "111")
        set_session_defaults(stream_budget=222)
        assert resolve_stream_budget(333) == 333

    def test_session_default_beats_env(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_STREAM_BUDGET_ENV, "111")
        set_session_defaults(stream_budget=222)
        assert resolve_stream_budget(None) == 222

    def test_env_is_the_fallback(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_STREAM_BUDGET_ENV, "111")
        assert resolve_stream_budget(None) == 111
        monkeypatch.delenv(DEFAULT_STREAM_BUDGET_ENV)
        assert resolve_stream_budget(None) is None

    def test_zero_means_explicitly_off(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_STREAM_BUDGET_ENV, "111")
        assert resolve_stream_budget(0) is None
        set_session_defaults(stream_budget=0)
        assert resolve_stream_budget(None) is None

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            resolve_stream_budget(-1)
        with pytest.raises(ConfigError, match="stream_budget"):
            set_session_defaults(stream_budget=-5)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_STREAM_BUDGET_ENV, "lots")
        with pytest.raises(SimulationError):
            resolve_stream_budget(None)


class TestPlanByteStore:
    def test_spilled_store_windows_match_resident(self):
        waveforms = {f"L{i}": int(make_rng(i).integers(2**62)) << 64 | i
                     for i in range(5)}
        n_cycles = 130
        resident = PlanByteStore(waveforms, n_cycles)
        spilled = PlanByteStore(waveforms, n_cycles, spill_bytes=1)
        assert not resident.spilled and spilled.spilled
        for start, stop in [(0, 1), (0, 130), (63, 65), (64, 128),
                            (129, 130), (7, 70)]:
            assert spilled.window(start, stop) == \
                resident.window(start, stop), (start, stop)

    def test_window_word_straddles_byte_edges(self):
        word = 0xDEADBEEFCAFEF00D5577AA33
        raw = word.to_bytes(16, "little")
        for start, stop in [(0, 96), (3, 9), (8, 16), (5, 95), (90, 96)]:
            expected = (word >> start) & ((1 << (stop - start)) - 1)
            assert window_word(raw, start, stop) == expected


class TestWindowPlans:
    def test_episode_windows_cover_every_cycle_once(self):
        design = _random_design(0)
        plan = compile_episode_plan(design, _random_vectors(design, 3, 0))
        bounds = episode_stream_windows(plan, 1)
        assert bounds[0][0] == 0 and bounds[-1][1] == plan.n_cycles
        for (a, b), (c, _) in zip(bounds, bounds[1:]):
            assert a < b == c
        assert len(bounds) == plan.n_cycles  # budget 1: maximal split

    def test_fault_windows_are_word_aligned(self):
        circuit = _random_circuit(0)
        plan = compile_fault_episode_plan(
            circuit, (), random_input_words(circuit, 200, make_rng(0)),
            200)
        bounds = fault_stream_windows(plan, 1)
        assert bounds[0][0] == 0 and bounds[-1][1] == 200
        for start, stop in bounds[:-1]:
            assert start % 64 == 0 and stop % 64 == 0


class TestStreamedEpisodeEqualsResident:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.booleans())
    # An unmapped design with a 5-input NAND has no leakage cell:
    # resident and streamed replays raise the same TimingError.
    @example(38, 1, False)
    def test_every_backend_tiny_budgets(self, seed, n_vectors, mapped):
        design = _random_design(seed, mapped)
        vectors = _random_vectors(design, n_vectors, seed)
        plan = compile_episode_plan(design, vectors)
        budgets = (1, plan.state_elements() // max(plan.n_cycles, 1) or 1,
                   64)
        engine = get_backend("bigint")

        def replay(keep, budget):
            try:
                return engine.simulate_episode_batch(
                    plan, keep_waveforms=keep, stream_budget=budget)
            except TimingError as exc:
                if mapped:  # every mapped gate has a library cell
                    raise
                return TimingError, str(exc)

        for keep in (True, False):
            resident = replay(keep, 0)
            for budget in budgets:
                assert replay(keep, budget) == resident, (keep, budget)

    def test_scan_power_reports_identical(self):
        design = _random_design(3, mapped=True)
        vectors = _random_vectors(design, 4, 3)
        resident = evaluate_scan_power(design, vectors, stream_budget=0)
        streamed = evaluate_scan_power(design, vectors, stream_budget=1)
        assert streamed == resident

    def test_env_budget_engages_streaming(self, monkeypatch):
        """$REPRO_STREAM_BUDGET alone must route through the streamer."""
        import repro.simulation.streaming as streaming_mod

        design = _random_design(5)
        vectors = _random_vectors(design, 3, 5)
        resident = evaluate_scan_power(design, vectors, backend="bigint")

        calls = []
        real = streaming_mod.stream_episode_batch

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # base.py imports the streamer lazily inside the gate, so the
        # spy must live on the streaming module itself.
        monkeypatch.setattr(streaming_mod, "stream_episode_batch", spy)
        monkeypatch.setenv(DEFAULT_STREAM_BUDGET_ENV, "1")
        streamed = evaluate_scan_power(design, vectors, backend="bigint")
        assert calls, "streaming never engaged under the env budget"
        assert streamed == resident


class TestStreamedFaultsEqualResident:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 150), st.booleans(),
           st.booleans())
    def test_every_backend_both_drop_modes(self, seed, n_patterns,
                                           mapped, drop):
        circuit = _random_circuit(seed, mapped=mapped)
        faults = all_faults(circuit)
        words = random_input_words(circuit, n_patterns, make_rng(seed))
        plan = compile_fault_episode_plan(circuit, faults, words,
                                          n_patterns)
        budgets = (1, plan.state_elements() // max(plan.n_words, 1) or 1)
        engine = get_backend("bigint")
        resident = engine.fault_simulate_plan(plan, drop=drop,
                                              stream_budget=0)
        for budget in budgets:
            streamed = engine.fault_simulate_plan(
                plan, drop=drop, stream_budget=budget)
            _assert_same_faults(streamed, resident, (drop, budget))

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_session_budget_matches_resident_session(self, seed, drop):
        circuit = _random_circuit(seed, n_gates=30)
        faults = all_faults(circuit)
        words = random_input_words(circuit, 130, make_rng(seed))
        resident = FaultSimSession(circuit, "bigint").simulate(
            faults, words, 130, drop=drop)
        session = FaultSimSession(circuit, "bigint", stream_budget=1)
        got = session.simulate(faults, words, 130, drop=drop)
        _assert_same_faults(got, resident, drop)


class TestPeakMemoryBounded:
    def test_streamed_fault_pass_allocates_a_fraction(self):
        """tracemalloc peak: budget = elements/16 must cut the resident
        good-machine allocation by at least 3x."""
        circuit = _random_circuit(1, n_gates=400, mapped=True)
        faults = all_faults(circuit)[:40]
        n = 4096
        words = random_input_words(circuit, n, make_rng(1))
        engine = get_backend("bigint")

        def measure(budget):
            plan = compile_fault_episode_plan(circuit, faults, words, n)
            tracemalloc.start()
            tracemalloc.reset_peak()
            engine.fault_simulate_plan(plan, drop=False,
                                       stream_budget=budget)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        measure(0)  # warm the row-table cache outside the trace
        resident_peak = measure(0)
        budget = state_elements(len(words), circuit, n) // 16
        streamed_peak = measure(budget)
        assert streamed_peak * 3 < resident_peak, (
            f"streamed peak {streamed_peak} not < 1/3 of resident "
            f"{resident_peak}")
