"""Bit-parallel stuck-at fault simulation with fault dropping.

For each fault: force the faulty line's packed waveform to the stuck
value, propagate the difference event by event to the gates it reaches,
and compare the good and faulty words at the observable lines.  With
64-4096 patterns per packed word this is the standard parallel-pattern
single-fault method.

The scalar replay below runs in integer *row space* over the circuit's
:func:`~repro.simulation.schedule.cached_row_table` (combinational
inputs first, then gate outputs in topological order; a sink tuple, an
opcode and a fan-in row tuple per row), the same table the big-int good
machine evaluates, plus an observable flag per row memoized here.  Per
call it turns the good words into one list that each fault mutates in
place and restores, with a min-heap of pending sink rows as the event
queue.

The heavy lifting is delegated to the selected simulation backend via
:meth:`~repro.simulation.backends.base.Backend.fault_simulate_batch`:

* ``bigint`` runs the scalar row-space replay (the bit-exact
  reference);
* ``numpy`` replays whole fault batches on the ``uint64`` pattern matrix
  (:mod:`repro.simulation.backends.fault_kernel`);
* ``sharded`` partitions the fault list over worker processes and merges
  the per-shard results deterministically
  (:mod:`repro.simulation.backends.sharded`).

All engines return bit-identical detection words and the same
``remaining`` ordering; the differential property tests in
``tests/properties`` enforce this.
"""

from __future__ import annotations

import dataclasses
import heapq
import weakref
from collections.abc import Collection, Mapping, Sequence

from repro.atpg.faults import Fault, observable_lines
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.simulation.backends import Backend, resolve_fault_backend
from repro.simulation.schedule import (
    OP_BUFF,
    OP_CONST1,
    OP_MUX2,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_XNOR,
    RowTable,
    cached_row_table,
)
from repro.simulation.values import mask

__all__ = ["FaultSimResult", "check_fault_lines", "detect_word",
           "fault_simulate", "scalar_fault_simulate", "scalar_replay"]


@dataclasses.dataclass
class FaultSimResult:
    """Outcome of simulating a fault list against a pattern set.

    ``detected[f]`` is the packed word of patterns that detect ``f``
    (missing = undetected); ``remaining`` lists the *undetected* faults,
    in the order they were given.
    """

    detected: dict[Fault, int]
    remaining: list[Fault]

    @property
    def n_detected(self) -> int:
        return len(self.detected)

    def coverage(self, n_faults: int | None = None) -> float:
        total = n_faults if n_faults is not None else \
            len(self.detected) + len(self.remaining)
        if total == 0:
            return 1.0
        return len(self.detected) / total


def check_fault_lines(circuit: Circuit, faults: Sequence[Fault]) -> None:
    """Raise :class:`~repro.errors.SimulationError` for a fault on a line
    ``circuit`` does not have (every engine rejects it the same way)."""
    for fault in faults:
        if not circuit.has_line(fault.line):
            raise SimulationError(
                f"fault {fault} is on unknown line {fault.line!r} "
                f"of circuit {circuit.name!r}")


_OBSERVABLE_CACHE: \
    "weakref.WeakKeyDictionary[Circuit, tuple[int, tuple[bool, ...]]]" = \
    weakref.WeakKeyDictionary()


def _observable_rows(circuit: Circuit, rows: RowTable) -> tuple[bool, ...]:
    """Per row of ``rows``: whether a difference there is seen (primary
    outputs and flop D lines); memoized per circuit version."""
    cached = _OBSERVABLE_CACHE.get(circuit)
    if cached is None or cached[0] != circuit.version:
        observable = [False] * len(rows.lines)
        for line in observable_lines(circuit):
            observable[rows.index[line]] = True
        cached = (circuit.version, tuple(observable))
        _OBSERVABLE_CACHE[circuit] = cached
    return cached[1]


def _check_pattern_count(n: int) -> None:
    if n < 1:
        raise SimulationError(
            f"fault simulation needs n >= 1 patterns, got {n}")


def _replay(rows: RowTable, faults: Sequence[Fault],
            good: Mapping[str, int], n: int,
            observable: Sequence[bool]) -> list[int]:
    """Detection word of each fault, over the good machine ``good``.

    Event-driven in row space: the good words become one list, each
    fault overwrites its row with the stuck word and a min-heap drains
    the sink rows of every row whose word differs (a sink's row exceeds
    every fan-in row, so its inputs are settled when it is popped).  A
    row is pushed once per changed fan-in; every push precedes its
    first pop, so the copies pop back to back and only the first is
    evaluated.  Each changed row is restored from ``base`` once the
    fault is done, so ``values`` is the good machine again for the
    next fault.
    """
    _check_pattern_count(n)
    base = []
    for line in rows.lines:
        try:
            base.append(good[line])
        except KeyError:
            raise SimulationError(
                f"good machine has no word for line {line!r}") from None
    values = list(base)
    full = mask(n)
    index = rows.index
    sinks = rows.sinks
    ops = rows.ops
    fanin = rows.fanin
    push = heapq.heappush
    pop = heapq.heappop
    words = []
    for fault in faults:
        row = index[fault.line]
        value = full if fault.stuck_at else 0
        good_value = base[row]
        if good_value == value:
            words.append(0)  # stuck value equals the good value everywhere
            continue
        detected = value ^ good_value if observable[row] else 0
        values[row] = value
        changed = [row]
        heap = list(sinks[row])  # ascending, so already a heap
        last = -1
        while heap:
            row = pop(heap)
            if row == last:
                continue
            last = row
            # eval_row, inlined: a call per event costs ~30% here.
            op = ops[row]
            ins = fanin[row]
            if op <= OP_NOR:
                if op <= OP_NAND:
                    value = full
                    for src in ins:
                        value &= values[src]
                else:
                    value = 0
                    for src in ins:
                        value |= values[src]
                if op == OP_NAND or op == OP_NOR:
                    value ^= full
            elif op == OP_NOT:
                value = values[ins[0]] ^ full
            elif op == OP_BUFF:
                value = values[ins[0]]
            elif op <= OP_XNOR:
                value = 0
                for src in ins:
                    value ^= values[src]
                if op == OP_XNOR:
                    value ^= full
            elif op == OP_MUX2:
                sel = values[ins[0]]
                value = ((sel ^ full) & values[ins[1]]) | \
                    (sel & values[ins[2]])
            else:
                value = full if op == OP_CONST1 else 0
            good_value = base[row]
            if value != good_value:
                values[row] = value
                changed.append(row)
                if observable[row]:
                    detected |= value ^ good_value
                for sink in sinks[row]:
                    push(heap, sink)
        for row in changed:
            values[row] = base[row]
        words.append(detected)
    return words


def detect_word(circuit: Circuit, fault: Fault, good: Mapping[str, int],
                n: int, obs: Collection[str] | None = None) -> int:
    """Packed word of patterns on which ``fault`` is detected.

    ``good`` must hold the fault-free simulation of all lines for the same
    patterns (from :func:`repro.simulation.bitsim.simulate_packed`); a
    missing line, ``n < 1`` or a fault on an unknown line raises
    :class:`~repro.errors.SimulationError`.  ``obs`` defaults to
    :func:`~repro.atpg.faults.observable_lines`; it is only tested for
    membership.
    """
    check_fault_lines(circuit, [fault])
    rows = cached_row_table(circuit)
    observable = _observable_rows(circuit, rows) if obs is None else \
        [line in obs for line in rows.lines]
    return _replay(rows, [fault], good, n, observable)[0]


def scalar_replay(circuit: Circuit, faults: Sequence[Fault],
                  good: Mapping[str, int], n: int) -> FaultSimResult:
    """Scalar row-space replay over an already-settled good machine.

    ``good`` holds the fault-free interchange words of every line
    (whichever backend produced them — words are backend-agnostic).
    This is the shared core of :func:`scalar_fault_simulate` and of the
    plan-based reference path
    (:meth:`~repro.simulation.backends.base.Backend.fault_simulate_plan`),
    which reuses one good machine across many calls instead of
    re-simulating it per batch.
    """
    check_fault_lines(circuit, faults)
    rows = cached_row_table(circuit)
    detected: dict[Fault, int] = {}
    remaining: list[Fault] = []
    for fault, word in zip(faults, _replay(rows, faults, good, n,
                                           _observable_rows(circuit, rows))):
        if word:
            detected[fault] = word
        else:
            remaining.append(fault)
    return FaultSimResult(detected=detected, remaining=remaining)


def scalar_fault_simulate(backend: Backend, circuit: Circuit,
                          faults: Sequence[Fault],
                          input_words: Mapping[str, int], n: int,
                          drop: bool = True) -> FaultSimResult:
    """Reference fault simulation: scalar big-int row-space replay.

    ``backend`` supplies the fault-free pass; the per-fault replay works
    on interchange words, so detection words are bit-identical no matter
    which backend computed the good machine.  This is the default
    :meth:`~repro.simulation.backends.base.Backend.fault_simulate_batch`
    implementation and the semantics every vectorized kernel must
    reproduce exactly.
    """
    good = backend.simulate_packed(circuit, input_words, n)
    return scalar_replay(circuit, faults, good, n)


def fault_simulate(circuit: Circuit, faults: Sequence[Fault],
                   input_words: Mapping[str, int], n: int,
                   drop: bool = True,
                   backend: str | Backend | None = None
                   ) -> FaultSimResult:
    """Simulate ``faults`` against ``n`` packed patterns.

    ``remaining`` always holds exactly the undetected faults, in input
    order.  ``drop=True`` (default) lets an engine stop refining a fault
    once it is detected; the detection word still records *all* detecting
    patterns of this batch (which reverse-order compaction exploits), so
    the result does not depend on ``drop``.  Dropping *across* batches is
    the caller's job: feed ``result.remaining`` to the next call.

    ``backend`` selects the fault-simulation engine (name, instance or
    ``None``).  ``None`` resolves to ``$REPRO_FAULT_BACKEND`` when set,
    else the session default.  Detection words and ``remaining`` ordering
    are bit-identical across all engines.  A fault on a line the circuit
    does not have, or ``n < 1``, raises
    :class:`~repro.errors.SimulationError`.
    """
    engine = resolve_fault_backend(backend)
    _check_pattern_count(n)
    check_fault_lines(circuit, faults)
    return engine.fault_simulate_batch(circuit, faults, input_words, n,
                                       drop=drop)
