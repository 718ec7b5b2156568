"""Process-sharded simulation meta-backend (fault and pattern axes).

``ShardedBackend`` runs the ``numpy`` engine in worker processes.  Plain
packed simulation delegates straight to ``numpy``; fault simulation
partitions the fault list into contiguous shards, simulates each shard
in its own worker and merges the per-shard
:class:`~repro.atpg.faultsim.FaultSimResult` objects in shard order.
Batched *episode* simulation
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
on ``numpy``: dispatch costs more than it saves there, and the result is
identical by construction.  The inline path never starts a pool.

Every sharded operation builds one *job* — a fault slice on the full
stimulus, a fault slice streamed over pattern windows, all faults on
one word-aligned pattern window, or one episode cycle chunk — and hands
it with its shard bounds to one scatter, :meth:`ShardedBackend._scatter`.
The scatter runs on a persistent :class:`~repro.campaign.pool.WorkerPool`:
the caller's (``pool=`` at construction), else the process-wide shared
pool (:func:`repro.campaign.pool.ensure_shared_pool`, started on first
use and reused by every later call).  Each task ships its pre-sliced job
and the circuit's content fingerprint; workers (:func:`_run_shard`)
intern the circuit by that fingerprint, so their per-circuit plan caches
keep hitting across calls.  The pool's own start method decides how
workers start (fork on Linux, spawn on macOS and Windows); the call that
starts the shared pool first seeds the intern table with its circuit, so
fork-started workers inherit the plan caches the parent already holds.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.cells.library import CellLibrary
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.obs.trace import span
from repro.runtime import KNOBS, resolve
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
DEFAULT_SHARDS_ENV = KNOBS["shards"].env

#: ``uint64``-element budget of one episode chunk's state matrix
#: (lines x words), ~32 MiB — the same order as the fault kernel's
#: batch budget.  Plans that fit run inline on ``numpy``.
_EPISODE_ELEMENT_BUDGET = 1 << 22

# Job kinds.  A job is the plain tuple
# ``(kind, circuit, faults, stimulus, n, option)`` (no class, so a
# pickled task carries no type reference):
#
# * ``_FAULTS``  — a fault slice on the full stimulus; ``stimulus`` is
#   the input words, ``option`` the drop flag;
# * ``_STREAM``  — a fault slice streamed over pattern windows;
#   ``stimulus`` is the plan byte map, ``option`` the stream budget;
# * ``_WINDOW``  — all faults on one word-aligned pattern window;
#   ``option`` is the drop flag;
# * ``_EPISODE`` — one episode cycle chunk; ``faults`` is ``None`` and
#   ``option`` is ``(collect leakage, keep waveforms, stream budget)``.
#
# Window and episode jobs carry the whole plan's byte map until
# :func:`_slice` cuts a task's window out of it as packed words.
_FAULTS, _STREAM, _WINDOW, _EPISODE = range(4)


def _slice(job: tuple, bounds: tuple[int, int]) -> tuple:
    """The part of ``job`` one task runs: a fault slice or a window."""
    kind, circuit, faults, stimulus, n, option = job
    start, stop = bounds
    if kind == _FAULTS or kind == _STREAM:
        return (kind, circuit, faults[start:stop], stimulus, n, option)
    words = {line: window_word(raw, start, stop)
             for line, raw in stimulus.items()}
    return (kind, circuit, faults, words, stop - start, option)


def _run(job: tuple) -> Any:
    """Run one sliced job on ``numpy`` and return its merge part."""
    from repro.simulation.backends import get_backend
    kind, circuit, faults, stimulus, n, option = job
    engine = get_backend("numpy")
    if kind == _EPISODE:
        return _episode_chunk_result(engine, circuit, stimulus, n, *option)
    if kind == _STREAM:
        store = PlanByteStore.from_bytes(stimulus, n)
        return stream_fault_words(engine, circuit, faults, store, n, option)
    return engine.fault_simulate_batch(circuit, faults, stimulus, n,
                                       drop=option)


def _episode_chunk_result(backend: Backend, circuit: Circuit,
                          words: dict[str, int], n: int, leakage: bool,
                          keep: bool, stream_budget: int | None
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


#: Worker-side circuit intern table.  Every task ships a freshly
#: unpickled circuit copy; the per-circuit plan/schedule caches key on
#: object identity, so without interning a persistent worker would
#: rebuild cone plans on every call.  Keyed by content fingerprint,
#: bounded LRU.
_INTERN_MAX = 8
_INTERNED_CIRCUITS: "OrderedDict[str, Circuit]" = OrderedDict()


def _interned_circuit(circuit: Circuit, fingerprint: str) -> Circuit:
    cached = _INTERNED_CIRCUITS.get(fingerprint)
    # A seeded dispatcher circuit may have been edited since it was
    # interned; it then no longer stands for this fingerprint.
    if cached is None or cached.fingerprint() != fingerprint:
        _INTERNED_CIRCUITS[fingerprint] = cached = circuit
        while len(_INTERNED_CIRCUITS) > _INTERN_MAX:
            _INTERNED_CIRCUITS.popitem(last=False)
    _INTERNED_CIRCUITS.move_to_end(fingerprint)
    return cached


def _run_shard(task: tuple[str, tuple]) -> Any:
    """Pool worker entry point: ``task`` is ``(fingerprint, job)``.

    The job arrives already sliced to this task; the fingerprint
    interns the circuit, so the worker's plan caches survive across
    calls.
    """
    fingerprint, job = task
    job = (job[0], _interned_circuit(job[1], fingerprint)) + job[2:]
    return _run(job)


class ShardedBackend(Backend):
    """Fault-list sharding over ``multiprocessing`` workers.

    Parameters
    ----------
    shards:
        Worker count; ``None`` resolves the ``shards`` knob of
        :mod:`repro.runtime` at call time (session, then
        ``$REPRO_SIM_SHARDS``), falling back to the attached pool's
        size, else the started shared pool's size, else
        :func:`repro.campaign.pool.default_pool_size`.
    min_faults_per_shard:
        Never split below this many faults per worker; lists smaller
        than two shards' worth run inline on ``numpy``.
    pool:
        Externally owned persistent :class:`~repro.campaign.pool.
        WorkerPool` every shard dispatch runs on.  The caller owns the
        pool's lifetime.  When unset, dispatch runs on the process-wide
        shared pool (:func:`repro.campaign.pool.ensure_shared_pool`),
        started on the first call that splits.
    episode_budget:
        ``uint64``-element budget of one episode chunk's state matrix
        (lines x words); plans whose whole matrix fits run inline on
        ``numpy``, larger plans split along the cycle axis.  Defaults
        to ~32 MiB per chunk.
    """

    name = "sharded"

    def __init__(self, shards: int | None = None,
                 min_faults_per_shard: int = 256,
                 pool: "WorkerPool | None" = None,
                 episode_budget: int | None = None):
        if shards is not None and shards < 1:
            raise SimulationError("shards must be >= 1")
        if min_faults_per_shard < 1:
            raise SimulationError("min_faults_per_shard must be >= 1")
        if episode_budget is not None and episode_budget < 1:
            raise SimulationError("episode_budget must be >= 1")
        self.shards = shards
        self.min_faults_per_shard = min_faults_per_shard
        self.pool = pool
        self.episode_budget = episode_budget if episode_budget is not None \
            else _EPISODE_ELEMENT_BUDGET

    # ------------------------------------------------------------------ #
    # plain packed simulation: pure delegation
    # ------------------------------------------------------------------ #

    def _inner(self) -> Backend:
        from repro.simulation.backends import get_backend
        return get_backend("numpy")

    def run(self, circuit: Circuit, input_words: Mapping[str, int],
            n: int) -> SimState:
        return self._inner().run(circuit, input_words, n)

    def eval_gate_packed(self, gtype: GateType, words: Sequence[int],
                         n: int) -> int:
        return self._inner().eval_gate_packed(gtype, words, n)

    # ------------------------------------------------------------------ #
    # the one scatter
    # ------------------------------------------------------------------ #

    def _scatter(self, job: tuple, bounds: Sequence[tuple[int, int]]
                 ) -> list:
        """Run ``job`` once per shard bounds; parts in bounds order.

        Dispatches on the attached pool, else on the shared pool
        (started here on first use).  Every task ships its pre-sliced
        job with the circuit fingerprint, so workers intern the circuit.
        """
        fingerprint = job[1].fingerprint()
        pool = self.pool
        if pool is None:
            from repro.campaign.pool import (
                active_shared_pool,
                ensure_shared_pool,
            )
            if active_shared_pool() is None:
                # Fork-started workers inherit the intern table: seeded
                # with this circuit, they reuse the plan caches it
                # already holds instead of rebuilding them per slice.
                _interned_circuit(job[1], fingerprint)
            pool = ensure_shared_pool(self.configured_shards())
        return pool.map(_run_shard, [(fingerprint, _slice(job, b))
                                     for b in bounds])

    # ------------------------------------------------------------------ #
    # pattern/cycle-axis sharded episode simulation
    # ------------------------------------------------------------------ #

    def episode_chunks(self, plan: "EpisodePlan") -> int:
        """Cycle-axis chunk count for ``plan`` under the memory budget.

        ``1`` (inline on ``numpy``) when the plan's whole state matrix
        fits the per-chunk element budget; otherwise at least enough
        chunks to respect the budget, rounded up to the configured
        worker count so an oversized plan also parallelizes.
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
        packed simulation on ``numpy``.  The merge is integer-exact
        (transition counts add, with one extra transition per chunk
        boundary where the edge bits differ; leakage pattern counts add
        and are priced once in table order; kept waveforms concatenate
        by shifting), so the result never depends on the chunk count —
        pinned against the unsharded pass by the differential property
        tests.

        Sharding composes with streaming: under a resolved
        ``stream_budget`` every chunk worker streams its own
        sub-windows (see :func:`_episode_chunk_result`), and the
        inline single-chunk path delegates the budget to ``numpy`` —
        peak memory per process is one window either way.
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
        job = (_EPISODE, plan.circuit, None,
               plan_byte_map(plan.waveforms, plan.n_cycles), plan.n_cycles,
               (collect_leakage, keep_waveforms, budget))
        with span("shard.scatter", axis="cycle", chunks=len(bounds),
                  processes=processes):
            parts = self._scatter(job, bounds)
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
        """The configured worker count: the ``shards`` knob, else the
        attached pool's size, else the started shared pool's size, else
        the usable CPU count.  Never starts a pool."""
        shards = resolve("shards", self.shards)
        if shards is not None:
            return shards
        from repro.campaign.pool import active_shared_pool, default_pool_size
        pool = self.pool or active_shared_pool()
        return pool.processes if pool is not None else default_pool_size()

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
                plan.n, drop, n_shards, stream_budget=budget)
        n_shards = min(self.configured_shards(), plan.n_words)
        if budget is not None:
            needed = -(plan.state_elements() // -budget)
            n_shards = min(plan.n_words, max(n_shards, needed))
        if n_shards <= 1 or plan.n_faults < self.min_faults_per_shard:
            # Tiny matrices (or single-word pattern sets) run inline:
            # dispatch costs more than the window work saves.
            return inner.fault_simulate_plan(plan, drop=drop,
                                             stream_budget=budget or 0)
        return self._shard_pattern_axis(plan, drop, n_shards)

    def _shard_fault_axis(self, circuit: Circuit, faults: "list[Fault]",
                          words: dict[str, int], n: int, drop: bool,
                          n_shards: int, stream_budget: int | None = None
                          ) -> FaultSimResult:
        """Contiguous fault-list shards over workers (stable merge).

        A set ``stream_budget`` makes every worker replay its slice
        window-by-window under the budget (drop-free windows, OR-folded
        — bit-identical in both drop modes), so no process ever holds
        the full good machine or its slice's detection matrix.
        """
        bounds = shard_bounds(len(faults), n_shards)
        if stream_budget is None:
            axis = "fault"
            job = (_FAULTS, circuit, faults, words, n, drop)
        else:
            axis = "fault-stream"
            job = (_STREAM, circuit, faults, plan_byte_map(words, n), n,
                   stream_budget)
        with span("shard.scatter", axis=axis, shards=len(bounds)):
            parts = self._scatter(job, bounds)
        with span("shard.merge", axis=axis, shards=len(bounds)):
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
        faults = list(plan.faults)
        word_bounds = shard_bounds(plan.n_words, n_shards)
        bounds = [(w0 * 64, min(plan.n, w1 * 64))
                  for w0, w1 in word_bounds]
        # Streaming can raise the window count past the worker count;
        # extra windows queue on the pool rather than spawning workers.
        processes = min(len(bounds), self.configured_shards())
        job = (_WINDOW, plan.circuit, faults,
               plan_byte_map(plan.input_words, plan.n), plan.n, drop)
        with span("shard.scatter", axis="pattern", windows=len(bounds),
                  processes=processes):
            parts = self._scatter(job, bounds)
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ShardedBackend shards={self.shards!r}>"
