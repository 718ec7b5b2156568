"""Unit tests for the fault x pattern batched replay subsystem."""

import numpy as np
import pytest
from atpg.compaction_reference import greedy_keep_bigint
from simulation.bigint_reference import simulate_packed_bigint

from repro.atpg.faults import all_faults
from repro.atpg.faultsim import fault_simulate
from repro.errors import SimulationError
from repro.netlist import builders
from repro.netlist.gates import GateType
from repro.simulation.backends import BigIntBackend, get_backend
from repro.simulation.bitsim import random_input_words
from repro.simulation.fault_episode import (
    FaultEpisodePlan,
    FaultSimSession,
    compile_fault_episode_plan,
    fault_planning_enabled,
)
from repro.techmap.mapper import technology_map
from repro.utils.rng import make_rng


@pytest.fixture
def mapped():
    return technology_map(builders.toy_scan_circuit())


@pytest.fixture
def stimulus(mapped):
    n = 130  # three uint64 words, ragged tail
    return random_input_words(mapped, n, make_rng(9)), n


class TestToggle:
    """The planned replay is the only path; the resolver that used to
    pick it survives as a constant."""

    def test_default_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "0")
        assert fault_planning_enabled() is True

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("on", True), ("true", True),
        ("0", False), ("off", False), ("no", False),
    ])
    def test_env_values(self, monkeypatch, mapped, stimulus, value,
                        expected):
        """No spelling of the retired ``$REPRO_FAULT_PLAN`` changes the
        result: it equals that of the path the value used to select
        (``expected``: the planned replay if true, the per-batch
        reference ``fault_simulate_batch`` if false)."""
        words, n = stimulus
        faults = all_faults(mapped)
        monkeypatch.setenv("REPRO_FAULT_PLAN", value)
        got = FaultSimSession(mapped, "bigint").simulate(faults, words, n)
        engine = get_backend("bigint")
        if expected:
            want = engine.fault_simulate_plan(
                compile_fault_episode_plan(mapped, faults, words, n))
        else:
            want = engine.fault_simulate_batch(mapped, faults, words, n)
        assert got.detected == want.detected
        assert list(got.detected) == list(want.detected)
        assert got.remaining == want.remaining


class TestPlan:
    def test_geometry(self, mapped, stimulus):
        words, n = stimulus
        faults = all_faults(mapped)
        plan = compile_fault_episode_plan(mapped, faults, words, n)
        assert plan.n_faults == len(faults)
        assert plan.n == n
        assert plan.faults == tuple(faults)

    def test_rejects_empty_pattern_set(self, mapped):
        with pytest.raises(SimulationError, match=">= 1 pattern"):
            FaultEpisodePlan(mapped, (), {}, 0)

    def test_good_words_memoized_per_backend(self, mapped, stimulus):
        words, n = stimulus
        plan = compile_fault_episode_plan(mapped, all_faults(mapped),
                                          words, n)
        class Other(BigIntBackend):
            name = "other"

        backend = get_backend("bigint")
        first = plan.good_words(backend)
        assert plan.good_words(backend) is first
        other = plan.good_words(Other())
        assert other is not first
        assert other == first

    def test_good_words_match_backend(self, mapped, stimulus):
        words, n = stimulus
        plan = compile_fault_episode_plan(mapped, all_faults(mapped),
                                          words, n)
        got = plan.good_words(get_backend("bigint"))
        assert got == simulate_packed_bigint(mapped, words, n)


class TestSession:
    def test_plan_and_legacy_paths_identical(self, mapped, stimulus):
        """The planned session equals the engine's per-batch
        reference, ``fault_simulate_batch``."""
        words, n = stimulus
        faults = all_faults(mapped)
        session = FaultSimSession(mapped, "bigint")
        for drop in (True, False):
            a = session.simulate(faults, words, n, drop=drop)
            b = get_backend("bigint").fault_simulate_batch(
                mapped, faults, words, n, drop=drop)
            assert a.detected == b.detected, drop
            assert list(a.detected) == list(b.detected), drop
            assert a.remaining == b.remaining, drop

    def test_good_state_reused_across_identical_stimuli(self, mapped,
                                                        stimulus):
        """Two plan-path calls on the same stimulus must settle the good
        machine once (the session's state pool hits)."""
        words, n = stimulus
        faults = all_faults(mapped)

        class CountingBackend(BigIntBackend):
            name = "counting"
            runs = 0

            def run(self, circuit, input_words, n):
                CountingBackend.runs += 1
                return super().run(circuit, input_words, n)

        session = FaultSimSession(mapped, CountingBackend())
        session.simulate(faults, words, n, drop=True)
        session.simulate(faults[: len(faults) // 2], words, n, drop=False)
        assert CountingBackend.runs == 1

    @pytest.mark.parametrize("backend", ["bigint"])
    def test_mutated_circuit_not_served_stale_state(self, backend):
        """A gate replaced between two calls on the same stimulus must
        re-settle the good machine, not reuse the old netlist's."""
        circuit = builders.s27()
        words = random_input_words(circuit, 64, make_rng(0))
        faults = all_faults(circuit)
        session = FaultSimSession(circuit, backend)
        session.simulate(faults, words, 64, drop=False)
        circuit.replace_gate("G13", GateType.NAND,
                             circuit.gates["G13"].inputs)
        got = session.simulate(faults, words, 64, drop=False)
        want = fault_simulate(circuit, faults, words, 64, drop=False)
        assert got.detected == want.detected

    def test_state_pool_is_bounded(self, mapped):
        session = FaultSimSession(mapped, "bigint")
        faults = all_faults(mapped)[:4]
        rng = make_rng(1)
        for i in range(7):
            words = random_input_words(mapped, 8, rng)
            session.simulate(faults, words, 8)
        assert len(session._state_pool) <= 4


class TestGreedyKeepEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_vectorized_equals_bigint(self, seed):
        from repro.atpg.faultsim import FaultSimResult
        from repro.atpg.generate import _greedy_keep
        gen = np.random.default_rng(seed)
        n_vectors = int(gen.integers(1, 40))
        n_faults = int(gen.integers(1, 60))
        words = {}
        from repro.atpg.faults import Fault
        for i in range(n_faults):
            word = int.from_bytes(
                gen.integers(0, 256, size=(n_vectors + 7) // 8,
                             dtype=np.uint8).tobytes(), "little")
            word &= (1 << n_vectors) - 1
            if word:
                words[Fault(f"l{i}", 0)] = word
        matrix = FaultSimResult(detected=words, remaining=[])
        assert _greedy_keep(matrix, n_vectors) == \
            greedy_keep_bigint(matrix, n_vectors)
