"""Unit tests for the fault x pattern batched replay subsystem."""

import numpy as np
import pytest
from atpg.compaction_reference import greedy_keep_bigint

from repro.atpg.faults import all_faults
from repro.atpg.faultsim import fault_simulate
from repro.errors import SimulationError
from repro.netlist import builders
from repro.netlist.gates import GateType
from repro.simulation.backends import ShardedBackend, get_backend
from repro.simulation.backends.fault_kernel import (
    _BATCH_ELEMENT_BUDGET,
    _MAX_BATCH_FAULTS,
    _MIN_BATCH_FAULTS,
    cached_fault_plan,
    fault_simulate_matrix,
    tile_geometry,
)
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
        got = FaultSimSession(mapped, "numpy").simulate(faults, words, n)
        engine = get_backend("numpy")
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
        assert plan.n_words == (n + 63) // 64
        assert plan.faults == tuple(faults)

    def test_rejects_empty_pattern_set(self, mapped):
        with pytest.raises(SimulationError, match=">= 1 pattern"):
            FaultEpisodePlan(mapped, (), {}, 0)

    def test_good_state_memoized_per_backend(self, mapped, stimulus):
        words, n = stimulus
        plan = compile_fault_episode_plan(mapped, all_faults(mapped),
                                          words, n)
        backend = get_backend("numpy")
        first = plan.good_state(backend)
        assert plan.good_state(backend) is first
        other = plan.good_state(get_backend("bigint"))
        assert other is not first
        assert plan.good_words(backend) is plan.good_words(backend)

    def test_good_words_match_backend(self, mapped, stimulus):
        words, n = stimulus
        plan = compile_fault_episode_plan(mapped, all_faults(mapped),
                                          words, n)
        got = plan.good_words(get_backend("numpy"))
        expected = get_backend("bigint").simulate_packed(mapped, words, n)
        assert got == expected


class TestTileGeometry:
    def test_default_matches_1d_batching(self, mapped, stimulus):
        """With the default budget, small problems keep the legacy 1-D
        shape: full pattern width, fault chunk in [min, max]."""
        words, n = stimulus
        get_backend("numpy").run(mapped, words, n)  # warm schedule
        plan = cached_fault_plan(mapped)
        n_words = (n + 63) // 64
        f_tile, w_tile = tile_geometry(plan, n_words)
        assert w_tile == n_words
        assert _MIN_BATCH_FAULTS <= f_tile <= _MAX_BATCH_FAULTS
        assert f_tile == min(
            _MAX_BATCH_FAULTS,
            _BATCH_ELEMENT_BUDGET // (plan.n_rows * n_words))

    def test_wide_pattern_sets_tile_the_word_axis(self, mapped, stimulus):
        words, n = stimulus
        get_backend("numpy").run(mapped, words, n)
        plan = cached_fault_plan(mapped)
        # A budget below min-faults x full-width forces word tiling.
        budget = plan.n_rows * _MIN_BATCH_FAULTS * 2
        f_tile, w_tile = tile_geometry(plan, 8, budget)
        assert f_tile == _MIN_BATCH_FAULTS
        assert w_tile == 2
        # Degenerate budget still yields a legal geometry.
        assert tile_geometry(plan, 8, 1) == (_MIN_BATCH_FAULTS, 1)

    def test_deterministic(self, mapped, stimulus):
        words, n = stimulus
        get_backend("numpy").run(mapped, words, n)
        plan = cached_fault_plan(mapped)
        assert tile_geometry(plan, 7) == tile_geometry(plan, 7)

    def test_tiled_kernel_bit_identical(self, mapped, stimulus):
        """Forcing multi-tile geometries on both axes must not change a
        single detection bit."""
        words, n = stimulus
        faults = all_faults(mapped)
        reference = fault_simulate(mapped, faults, words, n,
                                   backend="bigint")
        state = get_backend("numpy").run(mapped, words, n)
        plan = cached_fault_plan(mapped)
        for budget in (1, plan.n_rows * _MIN_BATCH_FAULTS * 2, None):
            got = fault_simulate_matrix(state, faults,
                                        element_budget=budget)
            assert got.detected == reference.detected, budget
            assert list(got.detected) == list(reference.detected), budget
            assert got.remaining == reference.remaining, budget


class TestSession:
    def test_plan_and_legacy_paths_identical(self, mapped, stimulus):
        """The planned session equals the engine's per-batch
        reference, ``fault_simulate_batch``."""
        words, n = stimulus
        faults = all_faults(mapped)
        for backend in ("bigint", "numpy"):
            session = FaultSimSession(mapped, backend)
            for drop in (True, False):
                a = session.simulate(faults, words, n, drop=drop)
                b = get_backend(backend).fault_simulate_batch(
                    mapped, faults, words, n, drop=drop)
                assert a.detected == b.detected, (backend, drop)
                assert list(a.detected) == list(b.detected), \
                    (backend, drop)
                assert a.remaining == b.remaining, (backend, drop)

    def test_good_state_reused_across_identical_stimuli(self, mapped,
                                                        stimulus):
        """Two plan-path calls on the same stimulus must settle the good
        machine once (the session's state pool hits)."""
        words, n = stimulus
        faults = all_faults(mapped)

        class CountingBackend(type(get_backend("numpy"))):
            name = "numpy"
            runs = 0

            def run(self, circuit, input_words, n):
                CountingBackend.runs += 1
                return super().run(circuit, input_words, n)

        session = FaultSimSession(mapped, CountingBackend())
        session.simulate(faults, words, n, drop=True)
        session.simulate(faults[: len(faults) // 2], words, n, drop=False)
        assert CountingBackend.runs == 1

    @pytest.mark.parametrize("backend", ["bigint", "numpy"])
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
        session = FaultSimSession(mapped, "numpy")
        faults = all_faults(mapped)[:4]
        rng = make_rng(1)
        for i in range(7):
            words = random_input_words(mapped, 8, rng)
            session.simulate(faults, words, 8)
        assert len(session._state_pool) <= 4

class TestShardedPlanAxes:
    def test_drop_mode_shards_fault_axis_inline_threshold(self, mapped,
                                                          stimulus):
        """Below the per-shard fault floor the plan runs inline on the
        inner engine (no workers)."""
        words, n = stimulus
        backend = ShardedBackend(shards=2, min_faults_per_shard=10_000)
        plan = compile_fault_episode_plan(mapped, all_faults(mapped),
                                          words, n)
        got = backend.fault_simulate_plan(plan, drop=True)
        reference = fault_simulate(mapped, all_faults(mapped), words, n,
                                   backend="numpy")
        assert got.detected == reference.detected

    def test_no_drop_single_word_runs_inline(self, mapped):
        words = random_input_words(mapped, 48, make_rng(3))
        backend = ShardedBackend(shards=4, min_faults_per_shard=1)
        plan = compile_fault_episode_plan(mapped, all_faults(mapped),
                                          words, 48)
        got = backend.fault_simulate_plan(plan, drop=False)
        reference = fault_simulate(mapped, all_faults(mapped), words, 48,
                                   backend="bigint")
        assert got.detected == reference.detected
        assert got.remaining == reference.remaining

    def test_pattern_axis_merge_is_exact(self, mapped, stimulus):
        """Forced multi-window no-drop replay ORs back to the exact
        single-pass detection words (real worker processes)."""
        words, n = stimulus
        faults = all_faults(mapped)
        reference = fault_simulate(mapped, faults, words, n,
                                   backend="bigint")
        backend = ShardedBackend(shards=3, min_faults_per_shard=1)
        plan = compile_fault_episode_plan(mapped, faults, words, n)
        got = backend.fault_simulate_plan(plan, drop=False)
        assert got.detected == reference.detected
        assert list(got.detected) == list(reference.detected)
        assert got.remaining == reference.remaining

    def test_pooled_dispatch_both_axes(self, mapped, stimulus):
        """A persistent worker pool serves both shard axes (no per-call
        fork) and stays bit-identical."""
        from repro.campaign.pool import WorkerPool

        words, n = stimulus
        faults = all_faults(mapped)
        reference = fault_simulate(mapped, faults, words, n, drop=False,
                                   backend="bigint")
        with WorkerPool(processes=2) as pool:
            backend = ShardedBackend(shards=2, min_faults_per_shard=1,
                                     pool=pool)
            for drop in (True, False):
                plan = compile_fault_episode_plan(mapped, faults, words,
                                                  n)
                got = backend.fault_simulate_plan(plan, drop=drop)
                assert got.detected == reference.detected, drop
                assert got.remaining == reference.remaining, drop

    def test_merge_pattern_axis_pure(self):
        """The window merge is pure integer arithmetic on word offsets."""
        from repro.atpg.faults import Fault
        from repro.atpg.faultsim import FaultSimResult
        f1, f2, f3 = Fault("a", 0), Fault("a", 1), Fault("b", 0)
        parts = [
            FaultSimResult(detected={f1: 0b01}, remaining=[f2, f3]),
            FaultSimResult(detected={f2: 0b10}, remaining=[f1, f3]),
        ]
        merged = ShardedBackend._merge_pattern_axis(
            [f1, f2, f3], [(0, 64), (64, 128)], parts)
        assert merged.detected == {f1: 0b01, f2: 0b10 << 64}
        assert list(merged.detected) == [f1, f2]
        assert merged.remaining == [f3]


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
