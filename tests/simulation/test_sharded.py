"""Sharded fault-simulation meta-backend mechanics.

Bit-identity of the sharded results is pinned by the differential
property suite (``tests/properties/test_backend_diff.py``); these tests
cover the machinery around it: partitioning, shard-count resolution,
inline fast path, delegation of plain packed simulation, pool
dispatch (including a spawn-started pool) and the size of the task
payloads.
"""

import pickle

import pytest

from repro.atpg.faults import all_faults
from repro.atpg.faultsim import fault_simulate
from repro.errors import SimulationError
from repro.simulation.backends import (
    ShardedBackend,
    get_backend,
    resolve_fault_backend,
)
from repro.simulation.backends.sharded import (
    DEFAULT_SHARDS_ENV,
    shard_bounds,
)
from repro.simulation.bitsim import random_input_words, simulate_packed
from repro.simulation.episode import compile_episode_plan
from repro.simulation.fault_episode import compile_fault_episode_plan
from repro.utils.rng import make_rng


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_uneven_split_front_loads_remainder(self):
        assert shard_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_shards_than_items(self):
        assert shard_bounds(2, 5) == [(0, 1), (1, 2)]

    def test_single_shard(self):
        assert shard_bounds(7, 1) == [(0, 7)]

    def test_covers_everything_contiguously(self):
        for n_items in range(1, 40):
            for n_shards in range(1, 8):
                bounds = shard_bounds(n_items, n_shards)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n_items
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start


class TestConfiguration:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(SimulationError):
            ShardedBackend(shards=0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(SimulationError):
            ShardedBackend(min_faults_per_shard=0)

    def test_effective_shards_respects_threshold(self):
        backend = ShardedBackend(shards=8, min_faults_per_shard=100)
        assert backend.effective_shards(50) == 1
        assert backend.effective_shards(250) == 2
        assert backend.effective_shards(10_000) == 8

    def test_effective_shards_from_env(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_SHARDS_ENV, "3")
        backend = ShardedBackend(min_faults_per_shard=1)
        assert backend.effective_shards(100) == 3

    def test_bad_env_shard_count_raises(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_SHARDS_ENV, "0")
        backend = ShardedBackend(min_faults_per_shard=1)
        with pytest.raises(SimulationError):
            backend.effective_shards(100)

    def test_non_numeric_env_shard_count_raises_cleanly(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_SHARDS_ENV, "two")
        backend = ShardedBackend(min_faults_per_shard=1)
        with pytest.raises(SimulationError, match="must be an integer"):
            backend.effective_shards(100)

    def test_registered_singleton_defaults(self):
        backend = get_backend("sharded")
        assert isinstance(backend, ShardedBackend)
        assert backend._inner() is get_backend("numpy")


class TestDelegation:
    def test_packed_simulation_delegates_to_inner(self, s27_mapped):
        words = random_input_words(s27_mapped, 70, make_rng(0))
        via_sharded = simulate_packed(s27_mapped, words, 70,
                                      backend="sharded")
        via_numpy = simulate_packed(s27_mapped, words, 70, backend="numpy")
        assert via_sharded == via_numpy

    def test_small_fault_list_runs_inline(self, s27_mapped, monkeypatch):
        # A threshold above the universe size must never dispatch: poison
        # the one scatter and verify it is not reached.
        def boom(*args):  # pragma: no cover - must not run
            raise AssertionError("worker should not be spawned")

        monkeypatch.setattr(ShardedBackend, "_scatter", boom)
        backend = ShardedBackend(shards=4, min_faults_per_shard=10_000)
        faults = all_faults(s27_mapped)
        words = random_input_words(s27_mapped, 64, make_rng(1))
        got = backend.fault_simulate_batch(s27_mapped, faults, words, 64)
        ref = fault_simulate(s27_mapped, faults, words, 64,
                             backend="bigint")
        assert got.detected == ref.detected
        assert got.remaining == ref.remaining


class TestFaultBackendResolution:
    def test_none_resolves_to_session_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_BACKEND", raising=False)
        from repro.simulation.backends import default_backend_name
        assert resolve_fault_backend(None).name == default_backend_name()

    def test_env_override_applies_to_fault_sim_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_BACKEND", "sharded")
        assert resolve_fault_backend(None).name == "sharded"
        from repro.simulation.backends import (
            default_backend_name,
            resolve_backend,
        )
        assert resolve_backend(None).name == default_backend_name()

    def test_explicit_spec_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_BACKEND", "sharded")
        assert resolve_fault_backend("numpy").name == "numpy"


class TestPooledDispatch:
    """Persistent-pool shard dispatch (``pool=`` hook)."""

    @pytest.fixture
    def pool(self):
        from repro.campaign.pool import WorkerPool
        with WorkerPool(processes=2) as p:
            yield p

    def _fault_job(self, circuit):
        faults = all_faults(circuit)
        words = random_input_words(circuit, 64, make_rng(1))
        return faults, words

    def test_pooled_results_bit_identical(self, s27_mapped, pool):
        faults, words = self._fault_job(s27_mapped)
        ref = fault_simulate(s27_mapped, faults, words, 64,
                             backend="bigint")
        backend = ShardedBackend(shards=2, min_faults_per_shard=4,
                                 pool=pool)
        got = fault_simulate(s27_mapped, faults, words, 64,
                             backend=backend)
        assert got.detected == ref.detected
        assert got.remaining == ref.remaining

    def test_pool_reused_across_calls(self, s27_mapped, pool):
        faults, words = self._fault_job(s27_mapped)
        backend = ShardedBackend(shards=2, min_faults_per_shard=4,
                                 pool=pool)
        first = fault_simulate(s27_mapped, faults, words, 64,
                               backend=backend)
        second = fault_simulate(s27_mapped, faults, words, 64,
                                backend=backend)
        assert first.detected == second.detected
        assert pool.started  # dispatch must not tear the pool down

    def test_pooled_dispatch_does_not_fork_per_call(self, s27_mapped,
                                                    pool, monkeypatch):
        # with a pool attached, the attached pool is the only pool used:
        # the shared pool must never be reached
        import repro.campaign.pool as pool_mod

        def boom(*args):  # pragma: no cover - must not run
            raise AssertionError("another pool was started")

        monkeypatch.setattr(pool_mod, "ensure_shared_pool", boom)
        faults, words = self._fault_job(s27_mapped)
        backend = ShardedBackend(shards=2, min_faults_per_shard=4,
                                 pool=pool)
        result = backend.fault_simulate_batch(s27_mapped, faults,
                                              words, 64)
        assert result.n_detected > 0

    def test_effective_shards_defaults_to_pool_size(self, pool,
                                                    monkeypatch):
        monkeypatch.delenv(DEFAULT_SHARDS_ENV, raising=False)
        backend = ShardedBackend(min_faults_per_shard=1, pool=pool)
        assert backend.effective_shards(100) == pool.processes

    def test_shared_pool_picked_up(self, s27_mapped):
        from repro.campaign.pool import (
            active_shared_pool,
            shutdown_shared_pool,
        )
        shutdown_shared_pool()
        faults, words = self._fault_job(s27_mapped)
        ref = fault_simulate(s27_mapped, faults, words, 64,
                             backend="bigint")
        # an inline-sized list starts no pool, and sizing never does
        inline = ShardedBackend(shards=2, min_faults_per_shard=10_000)
        inline.fault_simulate_batch(s27_mapped, faults, words, 64)
        assert inline.configured_shards() == 2
        assert active_shared_pool() is None
        # a list that splits starts one shared pool ...
        backend = ShardedBackend(shards=2, min_faults_per_shard=4)
        first = backend.fault_simulate_batch(s27_mapped, faults, words, 64)
        shared = active_shared_pool()
        assert shared is not None and shared.processes == 2
        workers = list(shared._workers)
        # ... and every later call reuses it, on the same live workers
        second = backend.fault_simulate_batch(s27_mapped, faults, words,
                                              64)
        assert active_shared_pool() is shared
        assert shared._workers == workers
        assert backend.pool is None
        for got in (first, second):
            assert got.detected == ref.detected
            assert got.remaining == ref.remaining

    def test_explicit_pool_outranks_shared(self, s27_mapped, pool,
                                           monkeypatch):
        from repro.campaign.pool import ensure_shared_pool

        def boom(*args):  # pragma: no cover - must not run
            raise AssertionError("shared pool was used")

        monkeypatch.delenv(DEFAULT_SHARDS_ENV, raising=False)
        shared = ensure_shared_pool(processes=1)
        monkeypatch.setattr(shared, "map", boom)
        faults, words = self._fault_job(s27_mapped)
        backend = ShardedBackend(min_faults_per_shard=4, pool=pool)
        assert backend.configured_shards() == pool.processes
        result = backend.fault_simulate_batch(s27_mapped, faults,
                                              words, 64)
        assert result.n_detected > 0


class TestCircuitInterning:
    """Worker-side intern table behind the pooled dispatch path."""

    def test_first_copy_wins(self, s27_mapped, monkeypatch):
        import repro.simulation.backends.sharded as sharded_mod
        monkeypatch.setattr(sharded_mod, "_INTERNED_CIRCUITS",
                            type(sharded_mod._INTERNED_CIRCUITS)())
        fp = s27_mapped.fingerprint()
        first = sharded_mod._interned_circuit(s27_mapped, fp)
        copy = s27_mapped.copy()
        second = sharded_mod._interned_circuit(copy, fp)
        assert first is s27_mapped
        assert second is s27_mapped  # the copy was deduplicated

    def test_edited_circuit_is_replaced(self, s27_mapped, monkeypatch):
        # a dispatcher seeds its own (mutable) circuit; once edited it
        # must no longer answer for the fingerprint it was seeded under
        import repro.simulation.backends.sharded as sharded_mod
        from repro.netlist.gates import GateType
        monkeypatch.setattr(sharded_mod, "_INTERNED_CIRCUITS",
                            type(sharded_mod._INTERNED_CIRCUITS)())
        seeded = s27_mapped.copy()
        fp = seeded.fingerprint()
        assert sharded_mod._interned_circuit(seeded, fp) is seeded
        seeded.add_gate("extra", GateType.NOT, (seeded.inputs[0],))
        fresh = s27_mapped.copy()
        assert sharded_mod._interned_circuit(fresh, fp) is fresh

    def test_bounded_lru(self, monkeypatch):
        import repro.simulation.backends.sharded as sharded_mod
        from repro.netlist import builders
        monkeypatch.setattr(sharded_mod, "_INTERNED_CIRCUITS",
                            type(sharded_mod._INTERNED_CIRCUITS)())
        for i in range(sharded_mod._INTERN_MAX + 3):
            sharded_mod._interned_circuit(builders.s27(), f"fp{i}")
        assert len(sharded_mod._INTERNED_CIRCUITS) == \
            sharded_mod._INTERN_MAX


class TestEpisodeWindowSlicing:
    def test_window_word_matches_shift(self):
        """Byte-view windows must equal the straightforward
        shift-and-mask slices for arbitrary (unaligned) bounds."""
        import numpy as np

        from repro.simulation.streaming import plan_byte_map, window_word
        from repro.simulation.values import mask

        rng = np.random.default_rng(3)
        n = 203  # deliberately not a multiple of 8 or 64
        word = int.from_bytes(rng.bytes((n + 7) // 8), "little") & mask(n)
        raw = plan_byte_map({"x": word}, n)["x"]
        for n_chunks in (1, 2, 3, 7, 40):
            for start, stop in shard_bounds(n, n_chunks):
                expected = (word >> start) & mask(stop - start)
                assert window_word(raw, start, stop) == expected


def _kind_calls(mapped, design, vectors):
    """Per job kind: a call on a sharded backend, paired with the inline
    ``numpy`` result it must equal."""
    numpy = get_backend("numpy")
    faults = all_faults(mapped)
    n = 130  # three uint64 words, ragged tail
    words = random_input_words(mapped, n, make_rng(9))
    plan = compile_fault_episode_plan(mapped, faults, words, n)
    budget = plan.state_elements() // 4
    episode = compile_episode_plan(design, vectors)
    return {
        "faults": (
            lambda b: b.fault_simulate_batch(mapped, faults, words, n),
            numpy.fault_simulate_batch(mapped, faults, words, n)),
        "stream": (
            lambda b: b.fault_simulate_plan(plan, drop=True,
                                            stream_budget=budget),
            numpy.fault_simulate_plan(plan, drop=True)),
        "window": (
            lambda b: b.fault_simulate_plan(plan, drop=False),
            numpy.fault_simulate_plan(plan, drop=False)),
        "episode": (
            lambda b: b.simulate_episode_batch(episode,
                                               keep_waveforms=True),
            numpy.simulate_episode_batch(episode, keep_waveforms=True)),
    }


def _assert_same(got, ref):
    if hasattr(ref, "detected"):
        assert got.detected == ref.detected
        assert list(got.detected) == list(ref.detected)
        assert got.remaining == ref.remaining
    else:
        assert got == ref


@pytest.fixture(scope="module")
def spawn_pool():
    """A spawn-started worker pool: spawn is the default start method
    on macOS and Windows, so shard dispatch must stay bit-identical
    through it."""
    from repro.campaign.pool import WorkerPool
    with WorkerPool(2, start_method="spawn") as pool:
        yield pool


class TestSpawnTransport:
    """Shard dispatch through a spawn-started pool (the default start
    method on macOS and Windows), forced on this platform."""

    @pytest.mark.parametrize("kind",
                             ["faults", "stream", "window", "episode"])
    def test_every_kind_bit_identical(self, kind, s27_mapped, s27_design,
                                      make_vectors, spawn_pool):
        recorder = _RecordingPool(spawn_pool)
        backend = ShardedBackend(shards=2, min_faults_per_shard=1,
                                 episode_budget=4, pool=recorder)
        call, ref = _kind_calls(s27_mapped, s27_design,
                                make_vectors(s27_design, 4))[kind]
        got = call(backend)
        _assert_same(got, ref)
        assert spawn_pool._ctx.get_start_method() == "spawn"
        assert len(recorder.tasks) >= 2  # dispatched, not inline


class _RecordingPool:
    """Pool stand-in that keeps every task: runs them on ``inner`` (a
    real worker pool) when given, else inline in this process."""

    processes = 2

    def __init__(self, inner=None):
        self.inner = inner
        self.tasks = []

    def map(self, fn, items):
        items = list(items)
        self.tasks.extend(items)
        if self.inner is not None:
            return self.inner.map(fn, items)
        return [fn(item) for item in items]


def _legacy_payload(task):
    """The payload the same task shipped to a persistent pool before
    the one scatter: engine name first, episode options flattened."""
    from repro.simulation.backends import sharded as sharded_mod
    _fingerprint, (kind, circuit, faults, stimulus, n, option) = task
    fingerprint = circuit.fingerprint()
    if kind == sharded_mod._EPISODE:
        return ("numpy", circuit, fingerprint, stimulus, n, *option)
    return ("numpy", circuit, fingerprint, faults, stimulus, n, option)


class TestTaskPayloads:
    """Tasks ship pre-sliced jobs with the circuit fingerprint, and
    pickle no larger than the per-entry-point pool payloads they
    replaced — in-process and through a spawn-started pool."""

    @pytest.mark.parametrize("transport", ["pool", "spawn"])
    def test_no_task_outgrows_its_legacy_payload(self, transport,
                                                 s27_mapped, s27_design,
                                                 make_vectors, request):
        import repro.simulation.backends.sharded as sharded_mod

        inner = request.getfixturevalue("spawn_pool") \
            if transport == "spawn" else None
        recorder = _RecordingPool(inner)
        backend = ShardedBackend(shards=2, min_faults_per_shard=1,
                                 episode_budget=4, pool=recorder)
        calls = _kind_calls(s27_mapped, s27_design,
                            make_vectors(s27_design, 4))
        for call, ref in calls.values():
            _assert_same(call(backend), ref)
        kinds = {task[1][0] for task in recorder.tasks}
        assert kinds == {sharded_mod._FAULTS, sharded_mod._STREAM,
                         sharded_mod._WINDOW, sharded_mod._EPISODE}
        fingerprint = s27_mapped.fingerprint()
        for task in recorder.tasks:
            assert task[0] == fingerprint
            legacy = _legacy_payload(task)
            assert len(pickle.dumps(task)) <= len(pickle.dumps(legacy))
