"""Out-of-core streaming evaluation of episode and fault plans.

PR 4/5 compiled whole-test-set replays into single plans
(:class:`~repro.simulation.episode.EpisodePlan`,
:class:`~repro.simulation.fault_episode.FaultEpisodePlan`) whose state
matrices — ``(lines, cycle words)`` for power replay, the same good
machine for detection — are materialized in RAM.  At
production scale (10^5–10^6 gates x long episodes) those matrices no
longer fit.  This module makes both plan evaluations *streamable*:

* the packed stimulus is sliced into contiguous cycle windows produced
  lazily from a byte map (:class:`PlanByteStore` — spilled to a
  memory-mapped temp file above a threshold, so even the stimulus never
  has to stay resident);
* each window is one ordinary packed simulation whose state matrix fits
  a configurable ``stream_budget`` (``uint64`` elements);
* consumers fold every window's **integer-exact partial** into an
  accumulator — transition counts plus boundary edge bits, leakage
  pattern counts (priced once at the end), OR-shifted detection words —
  so the full detection/waveform matrix is never materialized and peak
  memory is bounded by the budget, not the plan.

The folds are integer-exact, so the streamed results are
**bit-identical** to the resident path for every budget — transitions,
IEEE-identical leakage floats, detection words and ``remaining``
ordering.  The differential
property suite pins this with forced one-word/one-cycle budgets.
Fault-detection windows are safe in both drop modes because every
(fault, pattern) detection bit is computed independently within one
plan call — dropping never changes a single call's words, only which
faults a *caller* re-submits later.

The big-int engine's resident replay already frees every word after
its last reader, so it holds only the live cut of lines — but each
live word still spans every cycle of the plan.  A window bounds that
cycle axis too, so streaming still caps memory once the live cut over
the whole episode is too large.

Streaming engages when a budget is configured and the plan's resident
state matrix would exceed it.  The budget is the ``stream_budget``
knob of :mod:`repro.runtime`, resolved with that module's one
precedence (per-call argument > session default, e.g.
``--stream-budget`` > ``$REPRO_STREAM_BUDGET`` > off).  The knob is
runtime-only: it never changes results, so it is excluded from
:meth:`~repro.core.config.FlowConfig.config_hash`.
"""

from __future__ import annotations

import mmap
import tempfile
from collections.abc import Mapping
from typing import TYPE_CHECKING

from repro.cells.library import CellLibrary
from repro.netlist.circuit import Circuit
from repro.obs.trace import span
from repro.runtime import KNOBS, resolve
from repro.simulation.values import mask

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    import numpy as np

    from repro.atpg.faults import Fault
    from repro.atpg.faultsim import FaultSimResult
    from repro.simulation.backends import Backend
    from repro.simulation.episode import EpisodeBatchResult, EpisodePlan
    from repro.simulation.fault_episode import FaultEpisodePlan

__all__ = [
    "DEFAULT_STREAM_BUDGET_ENV",
    "EpisodeAccumulator",
    "PlanByteStore",
    "episode_stream_windows",
    "episode_window_ingredients",
    "fault_stream_windows",
    "resolve_stream_budget",
    "split_bounds",
    "state_elements",
    "stream_episode_batch",
    "stream_fault_plan",
    "window_word",
]

#: Environment variable supplying the default stream budget (``uint64``
#: elements of one window's state matrix; ``0``/unset = streaming off).
DEFAULT_STREAM_BUDGET_ENV = KNOBS["stream_budget"].env

#: Stimulus byte maps above this size spill to a memory-mapped temp
#: file instead of staying resident (see :class:`PlanByteStore`).
_SPILL_THRESHOLD_BYTES = 256 * 1024 * 1024


def resolve_stream_budget(budget: int | None = None) -> int | None:
    """Resolve the stream budget: argument > session > env > off.

    Returns the ``uint64``-element budget of one streamed window's
    state matrix, or ``None`` when streaming is disabled.  ``0`` (from
    any source) means explicitly off.
    """
    return resolve("stream_budget", budget)


def split_bounds(n_items: int, n_parts: int) -> list[tuple[int, int]]:
    """Contiguous, near-even ``[start, stop)`` slices of ``n_items``.

    The first ``n_items % n_parts`` parts get one extra item; empty
    parts are never produced.  Pure function so tests can pin the
    partition stream windows see.
    """
    n_parts = max(1, min(n_parts, n_items))
    base, extra = divmod(n_items, n_parts)
    bounds: list[tuple[int, int]] = []
    start = 0
    for i in range(n_parts):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def window_word(raw: "bytes | memoryview | mmap.mmap", start: int,
                stop: int) -> int:
    """Cycles ``[start, stop)`` of a little-endian packed byte string.

    O(window) regardless of where the window sits, unlike shifting the
    whole packed big-int (O(total cycles) per chunk — which would make
    slicing k chunks cost k full-plan passes).  Accepts any bytes-like
    source, including a memory-mapped spill file.
    """
    low = start // 8
    high = (stop + 7) // 8
    return (int.from_bytes(bytes(raw[low:high]), "little")
            >> (start - low * 8)) & mask(stop - start)


def plan_byte_map(waveforms: Mapping[str, int],
                  n_cycles: int) -> dict[str, bytes]:
    """Each line's packed word as bytes — one O(plan) pass, after which
    every window slices in O(window)."""
    n_bytes = (n_cycles + 7) // 8
    return {line: word.to_bytes(n_bytes, "little")
            for line, word in waveforms.items()}


class PlanByteStore:
    """Packed stimulus bytes with O(window) slicing, spilled out of core
    when large.

    Small stimuli keep their byte map resident (exactly
    :func:`plan_byte_map`); stimuli above ``spill_bytes`` are written
    once to an anonymous temp file and windows are sliced from a
    ``mmap`` — the OS pages stimulus in and out on demand, so the
    working set during a streamed evaluation is one window, not the
    plan.
    """

    def __init__(self, waveforms: Mapping[str, int], n_cycles: int,
                 spill_bytes: int = _SPILL_THRESHOLD_BYTES):
        self.n_cycles = n_cycles
        self._n_bytes = n_bytes = (n_cycles + 7) // 8
        total = n_bytes * len(waveforms)
        self._map: mmap.mmap | None = None
        self._offsets: dict[str, int] = {}
        if total <= spill_bytes or total == 0:
            self._raw: dict[str, bytes] | None = \
                plan_byte_map(waveforms, n_cycles)
        else:
            self._raw = None
            with tempfile.TemporaryFile() as handle:
                for i, (line, word) in enumerate(waveforms.items()):
                    handle.write(word.to_bytes(n_bytes, "little"))
                    self._offsets[line] = i * n_bytes
                handle.flush()
                # mmap keeps its own reference to the file; the unnamed
                # temp file is reclaimed when the map is collected.
                self._map = mmap.mmap(handle.fileno(), total)

    @property
    def spilled(self) -> bool:
        """Whether the stimulus lives in a memory-mapped spill file."""
        return self._map is not None

    def window(self, start: int, stop: int) -> dict[str, int]:
        """Packed stimulus of cycles ``[start, stop)`` for every line."""
        if self._raw is not None:
            return {line: window_word(raw, start, stop)
                    for line, raw in self._raw.items()}
        assert self._map is not None
        low, high = start // 8, (stop + 7) // 8
        shift, window_mask = start - low * 8, mask(stop - start)
        return {
            line: (int.from_bytes(self._map[offset + low:offset + high],
                                  "little") >> shift) & window_mask
            for line, offset in self._offsets.items()
        }


def state_elements(n_stimulus_lines: int, circuit: Circuit,
                   n_patterns: int) -> int:
    """``uint64`` elements of the resident state matrix of one packed
    simulation: every stimulus line plus every gate output plus the
    constant-ones padding row, times the packed word count."""
    n_lines = n_stimulus_lines + len(circuit.topo_order()) + 1
    return n_lines * ((n_patterns + 63) // 64)


def episode_stream_windows(plan: "EpisodePlan",
                           budget: int) -> list[tuple[int, int]]:
    """Contiguous cycle windows of ``plan`` under ``budget``.

    One window when the whole plan fits; otherwise near-even cycle
    ranges, each of whose state matrices fits the element budget.
    """
    needed = -(plan.state_elements() // -budget)
    if needed <= 1:
        return [(0, plan.n_cycles)]
    return split_bounds(plan.n_cycles, min(needed, plan.n_cycles))


def fault_stream_windows(plan: "FaultEpisodePlan",
                         budget: int) -> list[tuple[int, int]]:
    """Word-aligned pattern windows of a fault plan under ``budget``.

    Windows are contiguous ``uint64``-word ranges of the pattern axis
    (the last window absorbs the tail bits), so each window's detection
    words are column slices of the full matrix and OR back
    bit-identically.
    """
    n = plan.n
    n_words = plan.n_words
    needed = -(plan.state_elements() // -budget)
    if needed <= 1:
        return [(0, n)]
    word_bounds = split_bounds(n_words, min(needed, n_words))
    return [(w0 * 64, min(n, w1 * 64)) for w0, w1 in word_bounds]


def episode_window_ingredients(backend: "Backend", circuit: Circuit,
                               words: Mapping[str, int], n: int,
                               collect_leakage: bool, keep_waveforms: bool
                               ) -> tuple[dict[str, int],
                                          dict[str, tuple[int, int]],
                                          "dict[str, np.ndarray] | None",
                                          dict[str, int] | None]:
    """Simulate one cycle window and distil the merge ingredients.

    Returns ``(transitions, edge bits, pattern counts, words)`` — the
    integer-exact ingredients an :class:`EpisodeAccumulator` folds:
    per-line transition counts within the window, each line's (first,
    last) cycle bit for the boundary transitions between neighbouring
    windows, per-gate leakage pattern counts (``None`` unless leakage
    was requested) and the window's packed words (``None`` unless
    waveforms were kept).
    """
    state = backend.run(circuit, words, n)
    edges: dict[str, tuple[int, int]] = {}
    for line in state.lines():
        word = state.word(line)
        edges[line] = (word & 1, (word >> (n - 1)) & 1)
    return (state.transitions(), edges,
            state.pattern_counts() if collect_leakage else None,
            state.words() if keep_waveforms else None)


class EpisodeAccumulator:
    """Integer-exact left fold of episode window partials.

    Applied incrementally, so only one window's partial is ever held
    alongside the running totals: transition counts add,
    with one extra transition per boundary whose adjacent edge bits
    differ; pattern counts add (pricing happens once, at the end);
    kept waveforms OR in place, shifted to their window offset.
    Bit-identical to the resident pass for every window partition.
    """

    def __init__(self) -> None:
        self.transitions: dict[str, int] | None = None
        self.pattern_counts: "dict[str, np.ndarray] | None" = None
        self.waveforms: dict[str, int] | None = None
        self._first_edges: dict[str, tuple[int, int]] | None = None
        self._last_edges: dict[str, tuple[int, int]] | None = None

    def fold(self, start: int,
             ingredients: tuple[dict[str, int],
                                dict[str, tuple[int, int]],
                                "dict[str, np.ndarray] | None",
                                dict[str, int] | None]) -> None:
        """Fold one window's ingredients; ``start`` is its first cycle
        relative to the accumulator's origin (first fold must be 0)."""
        transitions, edges, counts, words = ingredients
        if self.transitions is None:
            assert start == 0, "first window must start the plan"
            self.transitions = dict(transitions)
            self._first_edges = edges
            if counts is not None:
                self.pattern_counts = {line: arr.copy()
                                       for line, arr in counts.items()}
            if words is not None:
                self.waveforms = dict(words)
        else:
            assert self._last_edges is not None
            last = self._last_edges
            totals = self.transitions
            for line, count in transitions.items():
                totals[line] += count
                if last[line][1] != edges[line][0]:
                    totals[line] += 1
            if counts is not None:
                assert self.pattern_counts is not None
                merged = self.pattern_counts
                for line, arr in counts.items():
                    merged[line] += arr
            if words is not None:
                assert self.waveforms is not None
                waveforms = self.waveforms
                for line, word in words.items():
                    waveforms[line] |= word << start
        self._last_edges = edges

    def finish(self, plan: "EpisodePlan", library: CellLibrary,
               collect_leakage: bool) -> "EpisodeBatchResult":
        """Price the folded counts and assemble the batch result."""
        from repro.leakage.estimator import leakage_from_pattern_counts
        from repro.simulation.episode import EpisodeBatchResult
        assert self.transitions is not None
        leakage_sum: dict[str, float] = {}
        if collect_leakage:
            assert self.pattern_counts is not None
            leakage_sum = leakage_from_pattern_counts(
                plan.circuit, self.pattern_counts, library)
        return EpisodeBatchResult(
            n_cycles=plan.n_cycles,
            transitions=self.transitions,
            leakage_sum_na=leakage_sum,
            offsets=plan.offsets,
            lengths=plan.lengths,
            waveforms=self.waveforms,
        )


def stream_episode_batch(backend: "Backend", plan: "EpisodePlan",
                         library: CellLibrary | None,
                         collect_leakage: bool, keep_waveforms: bool,
                         budget: int) -> "EpisodeBatchResult":
    """Streamed evaluation of an episode plan under ``budget``.

    Slices the plan's stimulus into cycle windows whose state matrices
    fit the budget, simulates each window as one plain packed pass on
    ``backend`` and folds the integer-exact partials — the resident
    matrix is never materialized.  Bit-identical to
    :meth:`~repro.simulation.backends.base.Backend.
    simulate_episode_batch` without a budget.
    """
    from repro.cells.library import default_library
    library = library or default_library()
    store = PlanByteStore(plan.waveforms, plan.n_cycles)
    acc = EpisodeAccumulator()
    bounds = episode_stream_windows(plan, budget)
    with span("stream.episode", backend=backend.name,
              windows=len(bounds), cycles=plan.n_cycles):
        for start, stop in bounds:
            words = store.window(start, stop)
            with span("stream.window", start=start, stop=stop):
                acc.fold(start,
                         episode_window_ingredients(
                             backend, plan.circuit, words, stop - start,
                             collect_leakage, keep_waveforms))
    return acc.finish(plan, library, collect_leakage)


def stream_fault_plan(backend: "Backend", plan: "FaultEpisodePlan",
                      budget: int) -> "FaultSimResult":
    """Streamed evaluation of a fault x pattern plan under ``budget``.

    Each word-aligned pattern window is one drop-free
    :meth:`~repro.simulation.backends.base.Backend.fault_simulate_batch`
    on ``backend`` (within a single call dropping cannot change
    detection words, so drop-free windows reconstruct both drop modes'
    results); window words are OR-shifted into running big-int
    detection words, so the full detection matrix never exists.  The
    plan's memoized good state is deliberately bypassed — it *is* the
    resident matrix streaming avoids; each window re-simulates the
    fault-free machine over its own patterns only.  ``detected``/
    ``remaining`` are rebuilt in fault input order — identical to the
    resident pass.
    """
    from repro.atpg.faultsim import FaultSimResult
    store = PlanByteStore(plan.input_words, plan.n)
    bounds = fault_stream_windows(plan, budget)
    merged: dict[Fault, int] = {}
    with span("stream.fault", backend=backend.name,
              windows=len(bounds), patterns=plan.n):
        for start, stop in bounds:
            words = store.window(start, stop)
            with span("stream.window", start=start, stop=stop):
                part = backend.fault_simulate_batch(
                    plan.circuit, plan.faults, words, stop - start,
                    drop=False)
            for fault, word in part.detected.items():
                merged[fault] = merged.get(fault, 0) | (word << start)
    detected: dict[Fault, int] = {}
    remaining: list[Fault] = []
    for fault in plan.faults:
        word = merged.get(fault, 0)
        if word:
            detected[fault] = word
        else:
            remaining.append(fault)
    return FaultSimResult(detected=detected, remaining=remaining)
