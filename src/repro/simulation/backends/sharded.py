"""Process-sharded simulation meta-backend (fault and pattern axes).

``ShardedBackend`` wraps an inner engine (``numpy`` by default).  Plain
packed simulation delegates straight to the inner backend; fault
simulation partitions the fault list into contiguous shards, simulates
each shard in its own ``multiprocessing`` worker with the inner engine,
and merges the per-shard :class:`~repro.atpg.faultsim.FaultSimResult`
objects in shard order.  Batched *episode* simulation
(:meth:`ShardedBackend.simulate_episode_batch`) shards the other axis:
oversized :class:`~repro.simulation.episode.EpisodePlan`\\ s are split
into contiguous **cycle ranges** under a fixed memory budget, each chunk
is simulated by a worker, and the chunk results are merged with
integer-exact arithmetic (transition counts add, boundary transitions
are recovered from the chunk-edge bits, leakage pattern counts add and
are priced once) — so the merge is bit-identical to the unsharded pass
for every chunk count.

Determinism guarantees:

* shards are contiguous slices of the input fault list, so the merged
  ``detected`` insertion order and ``remaining`` ordering equal the
  single-process result exactly;
* every shard runs the same bit-identical kernel on the same patterns,
  so detection words never depend on the shard count (the differential
  property tests pin this against the big-int reference);
* fault dropping happens per shard — each worker drops its own detected
  faults — which is exactly the reference semantics, because dropping
  never crosses fault boundaries within one call;
* episode chunks merge through integer pattern/transition counts and a
  single float pricing pass in table order, so leakage floats and
  concatenated waveforms never depend on the chunk count either.

Short fault lists (below ``min_faults_per_shard`` per worker) run inline
on the inner backend: forking costs more than it saves there, and the
result is identical by construction.

Dispatch goes to, in precedence order:

1. an externally owned persistent :class:`~repro.campaign.pool.
   WorkerPool` (``pool=`` at construction, or temporarily via
   :meth:`ShardedBackend.using_pool`) — live workers, no per-call fork;
   workers intern circuits by content fingerprint so their per-circuit
   plan caches keep hitting across calls;
2. the process-wide shared pool, when someone started one
   (:func:`repro.campaign.pool.ensure_shared_pool`);
3. a fresh per-call ``multiprocessing`` pool (fork where it is the
   platform default, spawn elsewhere) — the original behaviour.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from collections import OrderedDict
from collections.abc import Iterator, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.cells.library import CellLibrary
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.obs.trace import span, traced_task
from repro.simulation.backends.base import Backend, SimState
from repro.simulation.streaming import (
    PlanByteStore,
    episode_window_ingredients,
    plan_byte_map,
    resolve_stream_budget,
    shard_bounds,
    state_elements,
    stream_episode_ingredients,
    stream_fault_words,
    window_word,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    import numpy as np

    from repro.atpg.faults import Fault
    from repro.atpg.faultsim import FaultSimResult
    from repro.campaign.pool import WorkerPool
    from repro.simulation.episode import EpisodeBatchResult, EpisodePlan
    from repro.simulation.fault_episode import FaultEpisodePlan

__all__ = ["ShardedBackend", "shard_bounds", "DEFAULT_SHARDS_ENV"]

#: Environment variable supplying the default worker count.
DEFAULT_SHARDS_ENV = "REPRO_SIM_SHARDS"

#: ``uint64``-element budget of one episode chunk's state matrix
#: (lines x words), ~32 MiB — the same order as the fault kernel's
#: batch budget.  Plans that fit run inline on the inner backend.
_EPISODE_ELEMENT_BUDGET = 1 << 22

# ``shard_bounds`` (and the byte-map slicing helpers) now live in
# :mod:`repro.simulation.streaming` — the canonical home shared by
# shard partitioning and stream windowing; the historical aliases stay
# importable from here.
_plan_byte_map = plan_byte_map
_window_word = window_word


def _simulate_shard(payload: tuple[str, Circuit, "Sequence[Fault]",
                                   dict[str, int], int, bool]
                    ) -> "FaultSimResult":
    """Worker entry point: one shard on the inner backend (picklable)."""
    inner_name, circuit, faults, input_words, n, drop = payload
    from repro.simulation.backends import get_backend
    return get_backend(inner_name).fault_simulate_batch(
        circuit, faults, input_words, n, drop=drop)


#: Worker-side circuit intern table for the persistent-pool path.
#: Every call ships a freshly unpickled circuit copy; the per-circuit
#: plan/schedule caches key on object identity, so without interning a
#: persistent worker would rebuild cone plans on every call.  Keyed by
#: content fingerprint, bounded LRU.
_INTERN_MAX = 8
_INTERNED_CIRCUITS: "OrderedDict[str, Circuit]" = OrderedDict()


def _interned_circuit(circuit: Circuit, fingerprint: str) -> Circuit:
    cached = _INTERNED_CIRCUITS.get(fingerprint)
    if cached is None:
        _INTERNED_CIRCUITS[fingerprint] = cached = circuit
        while len(_INTERNED_CIRCUITS) > _INTERN_MAX:
            _INTERNED_CIRCUITS.popitem(last=False)
    else:
        _INTERNED_CIRCUITS.move_to_end(fingerprint)
    return cached


def _simulate_shard_pooled(payload: tuple[str, Circuit, str,
                                          "Sequence[Fault]",
                                          dict[str, int], int, bool]
                           ) -> "FaultSimResult":
    """Persistent-pool worker: one shard, circuit interned by content."""
    inner_name, circuit, fingerprint, faults, input_words, n, drop = \
        payload
    circuit = _interned_circuit(circuit, fingerprint)
    from repro.simulation.backends import get_backend
    return get_backend(inner_name).fault_simulate_batch(
        circuit, faults, input_words, n, drop=drop)


def _episode_chunk_result(inner_name: str, circuit: Circuit,
                          words: dict[str, int], n: int, leakage: bool,
                          keep: bool,
                          stream_budget: int | None = None
                          ) -> tuple[dict[str, int],
                                     dict[str, tuple[int, int]],
                                     "dict[str, np.ndarray] | None",
                                     dict[str, int] | None]:
    """Simulate one cycle-range chunk and distil the merge ingredients.

    Returns ``(transitions, edge bits, pattern counts, words)`` — the
    integer-exact ingredients the parent merges: per-line transition
    counts within the chunk, each line's (first, last) cycle bit for
    the boundary transitions between neighbouring chunks, per-gate
    leakage pattern counts (``None`` unless leakage was requested) and
    the chunk's packed words (``None`` unless waveforms were kept).

    With a ``stream_budget`` the chunk exceeds, the worker streams its
    own sub-windows (sharding composes with streaming) and folds them
    before returning — the parent receives the exact ingredients an
    unstreamed chunk would have produced.
    """
    from repro.simulation.backends import get_backend
    backend = get_backend(inner_name)
    if stream_budget is not None:
        elements = state_elements(len(words), circuit, n)
        if elements > stream_budget:
            store = PlanByteStore(words, n)
            needed = -(elements // -stream_budget)
            bounds = shard_bounds(n, min(needed, n))
            return stream_episode_ingredients(backend, circuit, store, n,
                                              leakage, keep, bounds)
    return episode_window_ingredients(backend, circuit, words, n,
                                      leakage, keep)


def _simulate_episode_chunk(payload: tuple[str, Circuit, str,
                                           dict[str, int], int, bool,
                                           bool, int | None]
                            ) -> tuple[dict[str, int],
                                       dict[str, tuple[int, int]],
                                       "dict[str, np.ndarray] | None",
                                       dict[str, int] | None]:
    """Pool/spawn worker: one episode chunk, circuit interned by
    content."""
    (inner_name, circuit, fingerprint, words, n, leakage, keep,
     stream_budget) = payload
    circuit = _interned_circuit(circuit, fingerprint)
    return _episode_chunk_result(inner_name, circuit, words, n, leakage,
                                 keep, stream_budget)


def _simulate_episode_chunk_fork(bounds: tuple[int, int]
                                 ) -> tuple[dict[str, int],
                                            dict[str, tuple[int, int]],
                                            "dict[str, np.ndarray] | None",
                                            dict[str, int] | None]:
    """Fork-context worker: slice the inherited plan by ``bounds``.

    The circuit, its warmed schedule cache and the stimulus byte map
    arrive by copy-on-write inheritance (like the fault-shard fork
    path), so nothing is pickled per chunk and each worker only pays
    O(window) for slicing its own cycle window.
    """
    assert _FORK_JOB is not None
    inner_name, circuit, byte_map, leakage, keep, stream_budget = \
        _FORK_JOB
    start, stop = bounds
    words = {line: _window_word(raw, start, stop)
             for line, raw in byte_map.items()}
    return _episode_chunk_result(inner_name, circuit, words,
                                 stop - start, leakage, keep,
                                 stream_budget)


#: Fork-path job shared with workers by inheritance instead of pickling.
#: Children see the parent's warmed schedule / fault-plan caches (and,
#: for the numpy inner engine, the settled fault-free state) copy-on-
#: write, so a shard only pays for its own slice of the work.  Set
#: strictly around the ``Pool`` construction; not thread-safe (the
#: simulation substrate is process-parallel, not thread-parallel).
_FORK_JOB: tuple | None = None


def _simulate_shard_fork(bounds: tuple[int, int]) -> "FaultSimResult":
    """Fork-context worker: slice the inherited job by ``bounds``."""
    assert _FORK_JOB is not None
    inner_name, circuit, faults, input_words, n, drop = _FORK_JOB
    start, stop = bounds
    from repro.simulation.backends import get_backend
    return get_backend(inner_name).fault_simulate_batch(
        circuit, faults[start:stop], input_words, n, drop=drop)


def _simulate_shard_fork_state(bounds: tuple[int, int]) -> "FaultSimResult":
    """Fork-context worker over an inherited, already-settled state.

    The parent ran the fault-free simulation once; every worker replays
    only its fault slice on the shared (copy-on-write) matrix instead of
    re-simulating the whole circuit per shard.
    """
    assert _FORK_JOB is not None
    state, faults, drop = _FORK_JOB
    start, stop = bounds
    from repro.simulation.backends.fault_kernel import fault_simulate_matrix
    return fault_simulate_matrix(state, faults[start:stop], drop=drop)


def _simulate_fault_window_fork(bounds: tuple[int, int]
                                ) -> "FaultSimResult":
    """Fork-context worker: the whole fault list on one pattern window.

    The circuit, the fault list and the stimulus byte map arrive by
    copy-on-write inheritance (the ``_FORK_JOB`` machinery); each
    worker slices its own word-aligned cycle window in O(window) and
    good-simulates only that window, so the fault-free work is split
    across workers instead of duplicated.
    """
    assert _FORK_JOB is not None
    inner_name, circuit, faults, byte_map, drop = _FORK_JOB
    start, stop = bounds
    words = {line: _window_word(raw, start, stop)
             for line, raw in byte_map.items()}
    from repro.simulation.backends import get_backend
    return get_backend(inner_name).fault_simulate_batch(
        circuit, faults, words, stop - start, drop=drop)


def _simulate_shard_fork_stream(bounds: tuple[int, int]
                                ) -> "FaultSimResult":
    """Fork-context worker: stream one fault slice's pattern windows.

    The streamed composition of the fault axis: each worker owns a
    contiguous fault slice (like :func:`_simulate_shard_fork`) but
    replays it over pattern windows under the inherited stream budget,
    so no worker ever materializes the full good machine or detection
    matrix.
    """
    assert _FORK_JOB is not None
    inner_name, circuit, faults, byte_map, n, budget = _FORK_JOB
    start, stop = bounds
    from repro.simulation.backends import get_backend
    store = PlanByteStore.from_bytes(byte_map, n)
    return stream_fault_words(get_backend(inner_name), circuit,
                              faults[start:stop], store, n, budget)


def _simulate_shard_pooled_stream(payload: tuple[str, Circuit, str,
                                                 "Sequence[Fault]",
                                                 dict[str, bytes], int,
                                                 int]
                                  ) -> "FaultSimResult":
    """Pool/spawn worker: stream one fault slice's pattern windows."""
    inner_name, circuit, fingerprint, faults, byte_map, n, budget = \
        payload
    circuit = _interned_circuit(circuit, fingerprint)
    from repro.simulation.backends import get_backend
    store = PlanByteStore.from_bytes(byte_map, n)
    return stream_fault_words(get_backend(inner_name), circuit, faults,
                              store, n, budget)


class ShardedBackend(Backend):
    """Fault-list sharding over ``multiprocessing`` workers.

    Parameters
    ----------
    inner:
        Name of the engine each worker (and the inline fast path) runs.
    shards:
        Worker count; ``None`` defers to ``$REPRO_SIM_SHARDS`` at call
        time, falling back to ``os.cpu_count()``.
    min_faults_per_shard:
        Never split below this many faults per worker; lists smaller
        than two shards' worth run inline on the inner backend.
    pool:
        Externally owned persistent :class:`~repro.campaign.pool.
        WorkerPool`; shard dispatch then reuses its live workers
        instead of forking a fresh pool per call.  The caller owns the
        pool's lifetime.  When unset, a started process-wide shared
        pool (:func:`repro.campaign.pool.ensure_shared_pool`) is picked
        up opportunistically.
    episode_budget:
        ``uint64``-element budget of one episode chunk's state matrix
        (lines x words); plans whose whole matrix fits run inline on
        the inner backend, larger plans split along the cycle axis.
        Defaults to ~32 MiB per chunk.
    """

    name = "sharded"

    def __init__(self, inner: str = "numpy", shards: int | None = None,
                 min_faults_per_shard: int = 256,
                 pool: "WorkerPool | None" = None,
                 episode_budget: int | None = None):
        if inner == self.name:
            raise SimulationError("sharded backend cannot nest itself")
        if shards is not None and shards < 1:
            raise SimulationError("shards must be >= 1")
        if min_faults_per_shard < 1:
            raise SimulationError("min_faults_per_shard must be >= 1")
        if episode_budget is not None and episode_budget < 1:
            raise SimulationError("episode_budget must be >= 1")
        self.inner_name = inner
        self.shards = shards
        self.min_faults_per_shard = min_faults_per_shard
        self.pool = pool
        self.episode_budget = episode_budget if episode_budget is not None \
            else _EPISODE_ELEMENT_BUDGET

    @contextlib.contextmanager
    def using_pool(self, pool: "WorkerPool") -> Iterator["ShardedBackend"]:
        """Temporarily dispatch shards through ``pool``.

        Restores the previous pool (usually ``None``) on exit; the
        pool itself is not closed — the caller owns it.
        """
        previous = self.pool
        self.pool = pool
        try:
            yield self
        finally:
            self.pool = previous

    def _resolve_pool(self) -> "WorkerPool | None":
        """The pool shard dispatch should use, if any."""
        if self.pool is not None:
            return self.pool
        from repro.campaign.pool import active_shared_pool
        return active_shared_pool()

    # ------------------------------------------------------------------ #
    # plain packed simulation: pure delegation
    # ------------------------------------------------------------------ #

    def _inner(self) -> Backend:
        from repro.simulation.backends import get_backend
        return get_backend(self.inner_name)

    def run(self, circuit: Circuit, input_words: Mapping[str, int],
            n: int) -> SimState:
        return self._inner().run(circuit, input_words, n)

    def eval_gate_packed(self, gtype: GateType, words: Sequence[int],
                         n: int) -> int:
        return self._inner().eval_gate_packed(gtype, words, n)

    # ------------------------------------------------------------------ #
    # pattern/cycle-axis sharded episode simulation
    # ------------------------------------------------------------------ #

    def episode_chunks(self, plan: "EpisodePlan") -> int:
        """Cycle-axis chunk count for ``plan`` under the memory budget.

        ``1`` (inline on the inner backend) when the plan's whole state
        matrix fits the per-chunk element budget; otherwise at least
        enough chunks to respect the budget, rounded up to the
        configured worker count so an oversized plan also parallelizes.
        """
        n_lines = len(plan.waveforms) + len(plan.circuit.topo_order()) + 1
        n_words = (plan.n_cycles + 63) // 64
        needed = -(n_lines * n_words // -self.episode_budget)
        if needed <= 1:
            return 1
        return min(plan.n_cycles, max(needed, self.configured_shards()))

    def simulate_episode_batch(self, plan: "EpisodePlan",
                               library: CellLibrary | None = None,
                               collect_leakage: bool = True,
                               keep_waveforms: bool = False,
                               stream_budget: int | None = None
                               ) -> "EpisodeBatchResult":
        """Shard the plan's cycle axis across workers and merge exactly.

        Chunks are contiguous cycle ranges; every chunk is one plain
        packed simulation on the inner engine.  The merge is
        integer-exact (transition counts add, with one extra transition
        per chunk boundary where the edge bits differ; leakage pattern
        counts add and are priced once in table order; kept waveforms
        concatenate by shifting), so the result never depends on the
        chunk count — pinned against the unsharded pass by the
        differential property tests.

        Sharding composes with streaming: under a resolved
        ``stream_budget`` every chunk worker streams its own
        sub-windows (see :func:`_episode_chunk_result`), and the
        inline single-chunk path delegates the budget to the inner
        engine — peak memory per process is one window either way.
        """
        from repro.cells.library import default_library
        library = library or default_library()
        budget = resolve_stream_budget(stream_budget)
        n_chunks = self.episode_chunks(plan)
        if n_chunks <= 1:
            return self._inner().simulate_episode_batch(
                plan, library, collect_leakage=collect_leakage,
                keep_waveforms=keep_waveforms,
                stream_budget=budget or 0)

        bounds = shard_bounds(plan.n_cycles, n_chunks)
        processes = min(len(bounds), self.configured_shards())
        pool = self._resolve_pool()
        with span("shard.scatter", axis="cycle", chunks=len(bounds),
                  processes=processes):
            if pool is not None or \
                    multiprocessing.get_start_method(allow_none=False) \
                    != "fork":
                # Pool/spawn paths ship pre-sliced chunk stimuli; one
                # O(plan) byte conversion, then each window is O(window).
                # Workers intern the circuit by content fingerprint.
                fingerprint = plan.circuit.fingerprint()
                byte_map = _plan_byte_map(plan.waveforms, plan.n_cycles)
                payloads: list[Any] = [
                    (self.inner_name, plan.circuit, fingerprint,
                     {line: _window_word(raw, start, stop)
                      for line, raw in byte_map.items()},
                     stop - start, collect_leakage, keep_waveforms, budget)
                    for start, stop in bounds
                ]
                if pool is not None:
                    parts = pool.map(_simulate_episode_chunk, payloads)
                else:  # pragma: no cover - non-fork platforms
                    ctx = multiprocessing.get_context("spawn")
                    with ctx.Pool(processes=processes) as mp_pool:
                        parts = mp_pool.map(
                            traced_task(_simulate_episode_chunk),
                            payloads)
            else:
                # Fork path: the circuit, its warmed schedule cache and
                # the stimulus byte map inherit copy-on-write; workers
                # slice their own cycle windows (nothing pickled per
                # chunk).
                if self.inner_name == "numpy":
                    from repro.simulation.schedule import cached_schedule
                    cached_schedule(plan.circuit)
                ctx = multiprocessing.get_context("fork")
                global _FORK_JOB
                _FORK_JOB = (self.inner_name, plan.circuit,
                             _plan_byte_map(plan.waveforms, plan.n_cycles),
                             collect_leakage, keep_waveforms, budget)
                try:
                    with ctx.Pool(processes=processes) as mp_pool:
                        parts = mp_pool.map(
                            traced_task(_simulate_episode_chunk_fork),
                            bounds)
                finally:
                    _FORK_JOB = None
        with span("shard.merge", axis="cycle", chunks=len(bounds)):
            return self._merge_episode(plan, bounds, parts, library,
                                       collect_leakage, keep_waveforms)

    @staticmethod
    def _merge_episode(plan: "EpisodePlan",
                       bounds: Sequence[tuple[int, int]],
                       parts: Sequence[tuple], library: CellLibrary,
                       collect_leakage: bool, keep_waveforms: bool
                       ) -> "EpisodeBatchResult":
        from repro.leakage.estimator import leakage_from_pattern_counts
        from repro.simulation.episode import EpisodeBatchResult

        # Transition counts add across chunks; a boundary between two
        # chunks contributes one more transition per line whose last
        # bit of the left chunk differs from the first bit of the
        # right.  Entry order follows the inner backend's dict.
        transitions = dict(parts[0][0])
        for left, right in zip(parts, parts[1:]):
            left_edges, right_trans, right_edges = \
                left[1], right[0], right[1]
            for line, count in right_trans.items():
                transitions[line] += count
                if left_edges[line][1] != right_edges[line][0]:
                    transitions[line] += 1

        leakage_sum: dict[str, float] = {}
        if collect_leakage:
            merged_counts = {line: arr.copy()
                             for line, arr in parts[0][2].items()}
            for part in parts[1:]:
                for line, arr in part[2].items():
                    merged_counts[line] += arr
            leakage_sum = leakage_from_pattern_counts(
                plan.circuit, merged_counts, library)

        waveforms: dict[str, int] | None = None
        if keep_waveforms:
            waveforms = dict(parts[0][3])
            for (start, _stop), part in zip(bounds[1:], parts[1:]):
                for line, word in part[3].items():
                    waveforms[line] |= word << start
        return EpisodeBatchResult(
            n_cycles=plan.n_cycles,
            transitions=transitions,
            leakage_sum_na=leakage_sum,
            offsets=plan.offsets,
            lengths=plan.lengths,
            waveforms=waveforms,
        )

    # ------------------------------------------------------------------ #
    # sharded fault simulation
    # ------------------------------------------------------------------ #

    def configured_shards(self) -> int:
        """The configured worker count (flag, session, env, pool or
        CPU count)."""
        shards = self.shards
        if shards is None:
            from repro.runtime import session_defaults
            shards = session_defaults().shards
        if shards is None:
            env = os.environ.get(DEFAULT_SHARDS_ENV, "")
            if env:
                try:
                    shards = int(env)
                except ValueError:
                    raise SimulationError(
                        f"${DEFAULT_SHARDS_ENV} must be an integer, "
                        f"got {env!r}") from None
            else:
                pool = self._resolve_pool()
                shards = pool.processes if pool is not None \
                    else os.cpu_count() or 1
        if shards < 1:
            raise SimulationError(
                f"invalid shard count {shards} "
                f"(check ${DEFAULT_SHARDS_ENV})")
        return shards

    def effective_shards(self, n_faults: int) -> int:
        """Worker count actually used for ``n_faults`` faults."""
        by_size = n_faults // self.min_faults_per_shard
        return max(1, min(self.configured_shards(), by_size))

    def fault_simulate_batch(self, circuit: Circuit,
                             faults: Sequence[Fault],
                             input_words: Mapping[str, int], n: int,
                             drop: bool = True) -> FaultSimResult:
        inner = self._inner()
        n_shards = self.effective_shards(len(faults))
        if n_shards <= 1:
            return inner.fault_simulate_batch(
                circuit, faults, input_words, n, drop=drop)
        return self._shard_fault_axis(circuit, list(faults),
                                      dict(input_words), n, drop,
                                      n_shards)

    def fault_simulate_plan(self, plan: "FaultEpisodePlan",
                            drop: bool = True,
                            stream_budget: int | None = None
                            ) -> "FaultSimResult":
        """Two-axis sharded replay of a compiled fault x pattern plan.

        Drop-mode runs shard the **fault axis** (each worker replays
        its contiguous fault slice against all patterns — dropping is
        per fault, so fault-major keeps every worker's early-outs);
        no-drop detection matrices shard the **pattern axis** into
        word-aligned cycle windows (every fault is refined on every
        pattern anyway, and splitting the patterns also splits the
        fault-free simulation across workers).  Both merges are
        integer-exact — shard-ordered concatenation resp. an OR of
        window detection words — so the result never depends on the
        axis or the shard count.

        Sharding composes with streaming: under a resolved
        ``stream_budget`` a plan exceeds, fault-axis workers stream
        pattern windows of their own fault slice (never materializing
        the good machine), and the pattern axis raises its window
        count so every window fits the budget.
        """
        inner = self._inner()
        budget = resolve_stream_budget(stream_budget)
        if budget is not None and plan.state_elements() <= budget:
            budget = None
        if drop:
            n_shards = self.effective_shards(plan.n_faults)
            if n_shards <= 1:
                return inner.fault_simulate_plan(plan, drop=drop,
                                                 stream_budget=budget or 0)
            return self._shard_fault_axis(
                plan.circuit, list(plan.faults), dict(plan.input_words),
                plan.n, drop, n_shards,
                good_state=lambda: plan.good_state(inner),
                stream_budget=budget)
        n_shards = min(self.configured_shards(), plan.n_words)
        if budget is not None:
            needed = -(plan.state_elements() // -budget)
            n_shards = min(plan.n_words, max(n_shards, needed))
        if n_shards <= 1 or plan.n_faults < self.min_faults_per_shard:
            # Tiny matrices (or single-word pattern sets) run inline:
            # forking costs more than the window work saves.
            return inner.fault_simulate_plan(plan, drop=drop,
                                             stream_budget=budget or 0)
        return self._shard_pattern_axis(plan, drop, n_shards)

    def _shard_fault_axis(self, circuit: Circuit, faults: "list[Fault]",
                          words: dict[str, int], n: int, drop: bool,
                          n_shards: int,
                          good_state: "Any | None" = None,
                          stream_budget: int | None = None
                          ) -> FaultSimResult:
        """Contiguous fault-list shards over workers (stable merge).

        ``good_state`` (a thunk) supplies the settled numpy state for
        the fork path; plan-based calls pass the plan's memoized state
        so repeated dispatches on the same stimulus never re-simulate
        the good machine.  A set ``stream_budget`` routes every worker
        through the streamed pattern-window replay of its fault slice
        instead (the memoized state is deliberately bypassed — it *is*
        the resident matrix streaming avoids).
        """
        if stream_budget is not None:
            return self._shard_fault_axis_stream(circuit, faults, words,
                                                 n, n_shards,
                                                 stream_budget)
        bounds = shard_bounds(len(faults), n_shards)
        pool = self._resolve_pool()
        with span("shard.scatter", axis="fault", shards=len(bounds)):
            if pool is not None:
                # Persistent-pool path: no per-call fork.  Ship each
                # shard as a payload; workers intern the circuit by
                # content fingerprint so their plan caches survive
                # across calls.
                fingerprint = circuit.fingerprint()
                parts = pool.map(_simulate_shard_pooled, [
                    (self.inner_name, circuit, fingerprint,
                     faults[start:stop], words, n, drop)
                    for start, stop in bounds
                ])
            # Fork only where it is the platform default (Linux): merely
            # *available* fork (e.g. macOS, where spawn is the default
            # because fork-without-exec is unsafe under Accelerate/ObjC)
            # is not enough.
            elif multiprocessing.get_start_method(allow_none=False) == \
                    "fork":
                # Fork path: children inherit the parent's warmed caches
                # copy-on-write, so pay the expensive shared work
                # (fanout cones, levelized schedule, the fault-free
                # simulation for the numpy engine) once here instead of
                # once per worker per call.
                self._warm_parent_caches(circuit, faults)
                ctx = multiprocessing.get_context("fork")
                global _FORK_JOB
                if self.inner_name == "numpy":
                    state = good_state() if good_state is not None \
                        else self._inner().run(circuit, words, n)
                    _FORK_JOB = (state, faults, drop)
                    worker = _simulate_shard_fork_state
                else:
                    _FORK_JOB = (self.inner_name, circuit, faults, words,
                                 n, drop)
                    worker = _simulate_shard_fork
                try:
                    with ctx.Pool(processes=len(bounds)) as pool:
                        parts = pool.map(traced_task(worker), bounds)
                finally:
                    _FORK_JOB = None
            else:  # pragma: no cover - non-fork platforms
                payloads: list[Any] = [
                    (self.inner_name, circuit, faults[start:stop], words,
                     n, drop)
                    for start, stop in bounds
                ]
                ctx = multiprocessing.get_context("spawn")
                with ctx.Pool(processes=len(payloads)) as mp_pool:
                    parts = mp_pool.map(traced_task(_simulate_shard),
                                        payloads)
        with span("shard.merge", axis="fault", shards=len(bounds)):
            return self._merge(parts)

    def _shard_fault_axis_stream(self, circuit: Circuit,
                                 faults: "list[Fault]",
                                 words: dict[str, int], n: int,
                                 n_shards: int,
                                 budget: int) -> FaultSimResult:
        """Fault-axis shards whose workers stream pattern windows.

        Same contiguous fault partition and stable merge as
        :meth:`_shard_fault_axis`, but each worker replays its slice
        window-by-window under the stream budget (drop-free windows,
        OR-folded — bit-identical in both drop modes), so no process
        ever holds the full good machine or its slice's detection
        matrix.
        """
        bounds = shard_bounds(len(faults), n_shards)
        byte_map = _plan_byte_map(words, n)
        pool = self._resolve_pool()
        with span("shard.scatter", axis="fault-stream",
                  shards=len(bounds)):
            if pool is not None or \
                    multiprocessing.get_start_method(allow_none=False) \
                    != "fork":
                fingerprint = circuit.fingerprint()
                payloads: list[Any] = [
                    (self.inner_name, circuit, fingerprint,
                     faults[start:stop], byte_map, n, budget)
                    for start, stop in bounds
                ]
                if pool is not None:
                    parts = pool.map(_simulate_shard_pooled_stream,
                                     payloads)
                else:  # pragma: no cover - non-fork platforms
                    ctx = multiprocessing.get_context("spawn")
                    with ctx.Pool(processes=len(payloads)) as mp_pool:
                        parts = mp_pool.map(
                            traced_task(_simulate_shard_pooled_stream),
                            payloads)
            else:
                # Fork path: circuit, fault list and stimulus byte map
                # inherit copy-on-write; each worker streams its own
                # slice.
                self._warm_parent_caches(circuit, faults)
                ctx = multiprocessing.get_context("fork")
                global _FORK_JOB
                _FORK_JOB = (self.inner_name, circuit, faults, byte_map,
                             n, budget)
                try:
                    with ctx.Pool(processes=len(bounds)) as mp_pool:
                        parts = mp_pool.map(
                            traced_task(_simulate_shard_fork_stream),
                            bounds)
                finally:
                    _FORK_JOB = None
        with span("shard.merge", axis="fault-stream", shards=len(bounds)):
            return self._merge(parts)

    def _shard_pattern_axis(self, plan: "FaultEpisodePlan", drop: bool,
                            n_shards: int) -> FaultSimResult:
        """Word-aligned cycle windows over workers, OR-merged.

        Windows are contiguous ``uint64``-word ranges of the pattern
        axis (the last window absorbs the tail bits), so each worker's
        detection words are exact column slices of the full matrix:
        the merge shifts them back to their window offset and ORs —
        bit-identical to the unsharded plan for every window count.
        """
        circuit = plan.circuit
        faults = list(plan.faults)
        word_bounds = shard_bounds(plan.n_words, n_shards)
        bounds = [(w0 * 64, min(plan.n, w1 * 64))
                  for w0, w1 in word_bounds]
        # Streaming can raise the window count past the worker count;
        # extra windows queue on the pool rather than spawning workers.
        processes = min(len(bounds), self.configured_shards())
        byte_map = _plan_byte_map(plan.input_words, plan.n)
        pool = self._resolve_pool()
        with span("shard.scatter", axis="pattern", windows=len(bounds),
                  processes=processes):
            if pool is not None or \
                    multiprocessing.get_start_method(allow_none=False) \
                    != "fork":
                # Pool/spawn paths ship pre-sliced window stimuli (one
                # O(plan) byte conversion, each window O(window)); the
                # payload shape matches the fault-axis shard workers, so
                # the same interning entry points serve both axes.
                fingerprint = circuit.fingerprint()
                payloads: list[Any] = [
                    (self.inner_name, circuit, fingerprint, faults,
                     {line: _window_word(raw, start, stop)
                      for line, raw in byte_map.items()},
                     stop - start, drop)
                    for start, stop in bounds
                ]
                if pool is not None:
                    parts = pool.map(_simulate_shard_pooled, payloads)
                else:  # pragma: no cover - non-fork platforms
                    spawn_payloads = [payload[:2] + payload[3:]
                                      for payload in payloads]
                    ctx = multiprocessing.get_context("spawn")
                    with ctx.Pool(processes=processes) as mp_pool:
                        parts = mp_pool.map(
                            traced_task(_simulate_shard),
                            spawn_payloads)
            else:
                # Fork path: circuit, fault list and stimulus byte map
                # inherit copy-on-write; workers slice their own
                # windows.
                self._warm_parent_caches(circuit, faults)
                ctx = multiprocessing.get_context("fork")
                global _FORK_JOB
                _FORK_JOB = (self.inner_name, circuit, faults, byte_map,
                             drop)
                try:
                    with ctx.Pool(processes=processes) as mp_pool:
                        parts = mp_pool.map(
                            traced_task(_simulate_fault_window_fork),
                            bounds)
                finally:
                    _FORK_JOB = None
        with span("shard.merge", axis="pattern", windows=len(bounds)):
            return self._merge_pattern_axis(faults, bounds, parts)

    @staticmethod
    def _merge_pattern_axis(faults: "Sequence[Fault]",
                            bounds: Sequence[tuple[int, int]],
                            parts: "Sequence[FaultSimResult]"
                            ) -> FaultSimResult:
        """OR window detection words back into full-set words.

        Every (fault, pattern) detection bit is computed independently,
        so the word of window ``[start, stop)`` is exactly bits
        ``start..stop-1`` of the full word; the merge shifts and ORs.
        ``detected``/``remaining`` are rebuilt in fault-input order —
        identical to the single-pass reference.
        """
        from repro.atpg.faultsim import FaultSimResult
        merged: dict[Fault, int] = {}
        for (start, _stop), part in zip(bounds, parts):
            for fault, word in part.detected.items():
                merged[fault] = merged.get(fault, 0) | (word << start)
        detected: dict[Fault, int] = {}
        remaining: list[Fault] = []
        for fault in faults:
            word = merged.get(fault, 0)
            if word:
                detected[fault] = word
            else:
                remaining.append(fault)
        return FaultSimResult(detected=detected, remaining=remaining)

    @staticmethod
    def _merge(parts: "Sequence[FaultSimResult]") -> "FaultSimResult":
        """Stable merge: shard order == input order."""
        from repro.atpg.faultsim import FaultSimResult
        detected: dict[Fault, int] = {}
        remaining: list[Fault] = []
        for part in parts:
            detected.update(part.detected)
            remaining.extend(part.remaining)
        return FaultSimResult(detected=detected, remaining=remaining)

    def _warm_parent_caches(self, circuit: Circuit,
                            faults: Sequence[Fault]) -> None:
        """Populate per-circuit caches the forked workers will inherit.

        Only the numpy inner engine keeps a plan cache worth warming;
        cone extraction dominates its cold-start cost and is identical
        for every worker, so paying it once in the parent (memoized
        across calls) turns each fork into pure kernel work.
        """
        if self.inner_name != "numpy":
            return
        from repro.simulation.backends.fault_kernel import cached_fault_plan
        plan = cached_fault_plan(circuit)
        for line in {fault.line for fault in faults}:
            plan.cone_rows(line)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ShardedBackend inner={self.inner_name!r} "
                f"shards={self.shards!r}>")
