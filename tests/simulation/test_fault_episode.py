"""Unit tests for the fault-simulation session."""

import numpy as np
import pytest
from atpg.compaction_reference import greedy_keep_bigint
from simulation.bigint_reference import simulate_packed_bigint

from repro.atpg.faults import all_faults
from repro.atpg.faultsim import fault_simulate
from repro.errors import SimulationError
from repro.netlist import builders
from repro.netlist.gates import GateType
from repro.simulation import fault_episode
from repro.simulation.bitsim import random_input_words
from repro.simulation.fault_episode import (
    FaultSimSession,
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


@pytest.fixture
def good_passes(monkeypatch):
    """Count the session's good-machine passes."""
    passes = []
    settle = fault_episode.simulate_packed

    def counting(circuit, input_words, n):
        passes.append(circuit.version)
        return settle(circuit, input_words, n)

    monkeypatch.setattr(fault_episode, "simulate_packed", counting)
    return passes


def _assert_same(got, want, context=None) -> None:
    assert got.detected == want.detected, context
    assert list(got.detected) == list(want.detected), context
    assert got.remaining == want.remaining, context


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
        (``expected``: a session if true, one ``fault_simulate`` call
        if false)."""
        words, n = stimulus
        faults = all_faults(mapped)
        monkeypatch.setenv("REPRO_FAULT_PLAN", value)
        got = FaultSimSession(mapped).simulate(faults, words, n)
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        if expected:
            want = FaultSimSession(mapped).simulate(faults, words, n)
        else:
            want = fault_simulate(mapped, faults, words, n)
        _assert_same(got, want)


class TestPlan:
    def test_rejects_empty_pattern_set(self, mapped, good_passes):
        with pytest.raises(SimulationError, match=">= 1 pattern"):
            FaultSimSession(mapped).simulate((), {}, 0)
        assert good_passes == []

    def test_good_words_match_backend(self, mapped, stimulus):
        words, n = stimulus
        got = FaultSimSession(mapped).good_words(words, n)
        assert got == simulate_packed_bigint(mapped, words, n)


class TestSession:
    def test_plan_and_legacy_paths_identical(self, mapped, stimulus):
        """A session equals one ``fault_simulate`` call per batch."""
        words, n = stimulus
        faults = all_faults(mapped)
        session = FaultSimSession(mapped)
        for drop in (True, False):
            a = session.simulate(faults, words, n, drop=drop)
            b = fault_simulate(mapped, faults, words, n, drop=drop)
            _assert_same(a, b, drop)

    def test_good_state_reused_across_identical_stimuli(
            self, mapped, stimulus, good_passes):
        """Two calls on the same stimulus must settle the good machine
        once (the session's state pool hits)."""
        words, n = stimulus
        faults = all_faults(mapped)
        session = FaultSimSession(mapped)
        session.simulate(faults, words, n, drop=True)
        session.simulate(faults[: len(faults) // 2], words, n, drop=False)
        assert len(good_passes) == 1

    @pytest.mark.parametrize("engine", ["bigint"])
    def test_mutated_circuit_not_served_stale_state(self, engine,
                                                    good_passes):
        """A gate replaced between two calls on the same stimulus must
        re-settle the good machine, not reuse the old netlist's."""
        circuit = builders.s27()
        words = random_input_words(circuit, 64, make_rng(0))
        faults = all_faults(circuit)
        session = FaultSimSession(circuit)
        session.simulate(faults, words, 64, drop=False)
        before = circuit.version
        circuit.replace_gate("G13", GateType.NAND,
                             circuit.gates["G13"].inputs)
        got = session.simulate(faults, words, 64, drop=False)
        assert good_passes == [before, circuit.version] != [before] * 2
        want = fault_simulate(circuit, faults, words, 64, drop=False)
        assert got.detected == want.detected

    def test_state_pool_is_bounded(self, mapped):
        session = FaultSimSession(mapped)
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
