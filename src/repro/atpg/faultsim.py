"""Bit-parallel stuck-at fault simulation with fault dropping.

For each fault: force the faulty line's packed waveform to the stuck
value, propagate the difference event by event to the gates it reaches,
and compare the good and faulty words at the observable lines.  With
64-4096 patterns per packed word this is the standard parallel-pattern
single-fault method.

The scalar replay below runs in integer *row space*: rows are the lines
of the circuit's :func:`~repro.simulation.schedule.cached_schedule`
(combinational inputs first, then gate outputs in topological order).
Per circuit version it compiles a sink tuple, an opcode and a fan-in
row tuple for each row; per call it turns the good words into one list
that each fault mutates in place and restores, with a min-heap of
pending sink rows as the event queue.

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
from repro.netlist.gates import GateType
from repro.simulation.backends import Backend, resolve_fault_backend
from repro.simulation.schedule import cached_schedule
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


#: Small-int opcodes of the gate rows (the replay's inline evaluator
#: dispatches on these instead of hashing :class:`GateType` per event).
_AND, _NAND, _OR, _NOR, _NOT, _BUFF, _XOR, _XNOR, _MUX2, _CONST0, \
    _CONST1 = range(11)
_OPCODES = {
    GateType.AND: _AND, GateType.NAND: _NAND, GateType.OR: _OR,
    GateType.NOR: _NOR, GateType.NOT: _NOT, GateType.BUFF: _BUFF,
    GateType.XOR: _XOR, GateType.XNOR: _XNOR, GateType.MUX2: _MUX2,
    GateType.CONST0: _CONST0, GateType.CONST1: _CONST1,
}


@dataclasses.dataclass(frozen=True)
class _ReplayTables:
    """A circuit's combinational part as integer rows for the replay.

    Rows follow :attr:`LevelizedSchedule.lines` (combinational inputs
    first, then gate outputs in topological order), so a rising row
    index is a valid evaluation order.  Per row: ``sinks`` holds the
    combinational gate rows reading it (DFF sinks stop the effect at
    their D pins, like the test view's cone boundary), ``ops`` /
    ``fanin`` the gate's opcode and input rows (``-1`` / ``()`` for
    input rows), and ``observable`` whether a difference there is seen
    (primary outputs and flop D lines).
    """

    lines: tuple[str, ...]
    index: dict[str, int]
    sinks: tuple[tuple[int, ...], ...]
    ops: tuple[int, ...]
    fanin: tuple[tuple[int, ...], ...]
    observable: tuple[bool, ...]
    version: int


def _build_tables(circuit: Circuit) -> _ReplayTables:
    schedule = cached_schedule(circuit)
    index = schedule.line_index
    n_inputs = len(schedule.input_lines)
    gates = circuit.gates
    ops = [-1] * n_inputs
    fanin: list[tuple[int, ...]] = [()] * n_inputs
    sinks: list[list[int]] = [[] for _ in schedule.lines]
    for row, line in enumerate(schedule.lines[n_inputs:], n_inputs):
        gate = gates[line]
        ops.append(_OPCODES[gate.gtype])
        fanin.append(tuple(index[src] for src in gate.inputs))
        for src in dict.fromkeys(fanin[row]):
            sinks[src].append(row)
    observable = [False] * len(schedule.lines)
    for line in observable_lines(circuit):
        observable[index[line]] = True
    return _ReplayTables(
        lines=schedule.lines, index=index,
        sinks=tuple(map(tuple, sinks)), ops=tuple(ops),
        fanin=tuple(fanin), observable=tuple(observable),
        version=circuit.version)


_TABLE_CACHE: "weakref.WeakKeyDictionary[Circuit, _ReplayTables]" = \
    weakref.WeakKeyDictionary()


def _replay_tables(circuit: Circuit) -> _ReplayTables:
    """Memoized :func:`_build_tables`, invalidated by circuit mutation."""
    tables = _TABLE_CACHE.get(circuit)
    if tables is None or tables.version != circuit.version:
        tables = _build_tables(circuit)
        _TABLE_CACHE[circuit] = tables
    return tables


def _check_pattern_count(n: int) -> None:
    if n < 1:
        raise SimulationError(
            f"fault simulation needs n >= 1 patterns, got {n}")


def _replay(tables: _ReplayTables, faults: Sequence[Fault],
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
    for line in tables.lines:
        try:
            base.append(good[line])
        except KeyError:
            raise SimulationError(
                f"good machine has no word for line {line!r}") from None
    values = list(base)
    full = mask(n)
    index = tables.index
    sinks = tables.sinks
    ops = tables.ops
    fanin = tables.fanin
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
            op = ops[row]
            ins = fanin[row]
            if op <= _NOR:
                if op <= _NAND:
                    value = full
                    for src in ins:
                        value &= values[src]
                else:
                    value = 0
                    for src in ins:
                        value |= values[src]
                if op == _NAND or op == _NOR:
                    value ^= full
            elif op == _NOT:
                value = values[ins[0]] ^ full
            elif op == _BUFF:
                value = values[ins[0]]
            elif op <= _XNOR:
                value = 0
                for src in ins:
                    value ^= values[src]
                if op == _XNOR:
                    value ^= full
            elif op == _MUX2:
                sel = values[ins[0]]
                value = ((sel ^ full) & values[ins[1]]) | \
                    (sel & values[ins[2]])
            else:
                value = full if op == _CONST1 else 0
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
    tables = _replay_tables(circuit)
    observable = tables.observable if obs is None else \
        [line in obs for line in tables.lines]
    return _replay(tables, [fault], good, n, observable)[0]


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
    tables = _replay_tables(circuit)
    detected: dict[Fault, int] = {}
    remaining: list[Fault] = []
    for fault, word in zip(faults, _replay(tables, faults, good, n,
                                           tables.observable)):
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
