"""Levelized evaluation schedules for batched logic simulation.

A :class:`LevelizedSchedule` flattens a circuit's combinational part into
integer-indexed *batches*: all gates sharing the same logic level, gate
type and arity are grouped into one :class:`GateBatch` whose input and
output line indices are dense numpy arrays.  A vectorized backend can then
evaluate every gate of a batch in a single array operation; because level
``L`` gates only read lines of levels ``< L`` and batches are emitted in
ascending level order, executing the batches sequentially is a valid
topological schedule.

On top of the plain batches the schedule also emits a *fused* program:
all AND-family gates of one level (AND/NAND/OR/NOR/NOT/BUFF, any arity)
collapse into a single :class:`FusedAndBatch`.  Each such gate is an
AND of optionally-inverted inputs with an optionally-inverted output
(De Morgan), so one padded gather + masked AND-reduce evaluates the whole
level regardless of the type/arity mix; short gates are padded with a
dedicated constant-ones row (the AND identity).  This keeps the number of
array operations proportional to circuit *depth*, not to the number of
distinct (type, arity) buckets.

Both the batches and the big-int engines index lines by the rows of one
:class:`RowTable`: combinational inputs first, then gate outputs in
topological order, each gate row carrying a small-int opcode and its
fan-in rows.  The big-int good machine (:mod:`repro.simulation.backends.
bigint`) evaluates the rows in order with :func:`eval_row`; the scalar
fault replay (:mod:`repro.atpg.faultsim`) walks their sink rows.

Schedules and row tables are pure derived data.  :func:`cached_schedule`
and :func:`cached_row_table` memoize them per circuit object, keyed on
:attr:`Circuit.version` so mutations invalidate the cache automatically.
"""

from __future__ import annotations

import dataclasses
import functools
import weakref
from collections import defaultdict

import numpy as np

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.simulation.eval2 import comb_input_lines

__all__ = ["GateBatch", "FusedAndBatch", "TypeGroup", "LevelizedSchedule",
           "RowTable", "build_row_table", "build_schedule",
           "cached_row_table", "cached_schedule", "eval_row", "AND_FAMILY",
           "OPCODES", "GATE_TYPES"]

#: Gate types expressible as AND-of-literals with an output literal.
#: (input inversion mask, output inversion) per type.
AND_FAMILY: dict[GateType, tuple[bool, bool]] = {
    GateType.AND: (False, False),
    GateType.NAND: (False, True),
    GateType.OR: (True, True),
    GateType.NOR: (True, False),
    GateType.NOT: (True, False),
    GateType.BUFF: (False, False),
}


#: Small-int opcodes of the gate rows (the row evaluators dispatch on
#: these instead of hashing :class:`GateType` per gate).
OP_AND, OP_NAND, OP_OR, OP_NOR, OP_NOT, OP_BUFF, OP_XOR, OP_XNOR, OP_MUX2, \
    OP_CONST0, OP_CONST1 = range(11)
OPCODES: dict[GateType, int] = {
    GateType.AND: OP_AND, GateType.NAND: OP_NAND, GateType.OR: OP_OR,
    GateType.NOR: OP_NOR, GateType.NOT: OP_NOT, GateType.BUFF: OP_BUFF,
    GateType.XOR: OP_XOR, GateType.XNOR: OP_XNOR, GateType.MUX2: OP_MUX2,
    GateType.CONST0: OP_CONST0, GateType.CONST1: OP_CONST1,
}
#: Inverse of :data:`OPCODES`: ``GATE_TYPES[op]`` is the gate type.
GATE_TYPES: tuple[GateType, ...] = tuple(OPCODES)


@dataclasses.dataclass(frozen=True, eq=False)
class RowTable:
    """A circuit's combinational part as integer rows.

    Rows are every simulated line, combinational inputs first, then gate
    outputs in topological order, so a rising row index is a valid
    evaluation order.  Per row: ``ops`` / ``fanin`` hold the gate's
    opcode (:data:`OPCODES`) and input rows (``-1`` / ``()`` for input
    rows), ``sinks`` the combinational gate rows reading it, each once
    (DFF sinks are not rows: a flop's D pin ends the combinational
    part).
    """

    lines: tuple[str, ...]
    index: dict[str, int]
    n_inputs: int
    ops: tuple[int, ...]
    fanin: tuple[tuple[int, ...], ...]
    sinks: tuple[tuple[int, ...], ...]
    version: int

    @functools.cached_property
    def releases(self) -> tuple[tuple[int, ...], ...]:
        """Per row, the rows whose words are dead once it has run.

        A row's word is last read by its highest sink row, or — with no
        sinks — by nothing after its own evaluation, so it is released
        there.  Built once per table, i.e. once per circuit version.
        """
        releases: list[list[int]] = [[] for _ in self.lines]
        for row, sinks in enumerate(self.sinks):
            releases[sinks[-1] if sinks else row].append(row)
        return tuple(map(tuple, releases))


def build_row_table(circuit: Circuit) -> RowTable:
    """Compile ``circuit``'s combinational part into a :class:`RowTable`."""
    inputs = comb_input_lines(circuit)
    lines = tuple(inputs) + tuple(circuit.topo_order())
    index = {line: row for row, line in enumerate(lines)}
    n_inputs = len(inputs)
    gates = circuit.gates
    ops = [-1] * n_inputs
    fanin: list[tuple[int, ...]] = [()] * n_inputs
    sinks: list[list[int]] = [[] for _ in lines]
    for row, line in enumerate(lines[n_inputs:], n_inputs):
        gate = gates[line]
        ops.append(OPCODES[gate.gtype])
        fanin.append(tuple(index[src] for src in gate.inputs))
        for src in dict.fromkeys(fanin[row]):
            sinks[src].append(row)
    return RowTable(lines=lines, index=index, n_inputs=n_inputs,
                    ops=tuple(ops), fanin=tuple(fanin),
                    sinks=tuple(map(tuple, sinks)),
                    version=circuit.version)


_ROW_CACHE: "weakref.WeakKeyDictionary[Circuit, RowTable]" = \
    weakref.WeakKeyDictionary()


def cached_row_table(circuit: Circuit) -> RowTable:
    """Memoized :func:`build_row_table`, invalidated by circuit mutation."""
    table = _ROW_CACHE.get(circuit)
    if table is None or table.version != circuit.version:
        table = build_row_table(circuit)
        _ROW_CACHE[circuit] = table
    return table


def eval_row(op: int, ins: tuple[int, ...], values: list[int],
             full: int) -> int:
    """Packed word of one gate row over the row words ``values``.

    ``op`` and ``ins`` are the row's opcode and fan-in rows; ``full`` is
    the ``n``-bit all-ones mask.
    """
    if op <= OP_NOR:
        if op <= OP_NAND:
            value = full
            for src in ins:
                value &= values[src]
        else:
            value = 0
            for src in ins:
                value |= values[src]
        return value ^ full if op == OP_NAND or op == OP_NOR else value
    if op == OP_NOT:
        return values[ins[0]] ^ full
    if op == OP_BUFF:
        return values[ins[0]]
    if op <= OP_XNOR:
        value = 0
        for src in ins:
            value ^= values[src]
        return value ^ full if op == OP_XNOR else value
    if op == OP_MUX2:
        sel = values[ins[0]]
        return ((sel ^ full) & values[ins[1]]) | (sel & values[ins[2]])
    return full if op == OP_CONST1 else 0


@dataclasses.dataclass(frozen=True)
class GateBatch:
    """All gates of one (level, type, arity) bucket, as index arrays.

    Attributes
    ----------
    gtype:
        Gate type shared by the batch.
    level:
        Logic level shared by the batch.
    outputs:
        ``(n_gates,)`` int array of output line indices.
    inputs:
        ``(arity, n_gates)`` int array; column ``g`` holds the input line
        indices of gate ``g`` in pin order.
    """

    gtype: GateType
    level: int
    outputs: np.ndarray
    inputs: np.ndarray

    @property
    def arity(self) -> int:
        return self.inputs.shape[0]

    def __len__(self) -> int:
        return len(self.outputs)


@dataclasses.dataclass(frozen=True)
class FusedAndBatch:
    """Every AND-family gate of one level as a single padded kernel.

    A gate ``out = g(x1..xk)`` with ``g`` in :data:`AND_FAMILY` is
    rewritten ``out = invert_out(AND_j invert_in(x_j))``; gates shorter
    than the level's maximum arity are padded with the constant-ones row
    (index :attr:`LevelizedSchedule.ones_index`, inversion off).

    Attributes
    ----------
    level:
        Logic level shared by the batch.
    outputs:
        ``(n_gates,)`` output line indices.
    inputs:
        ``(arity, n_gates)`` padded input line indices.
    invert_in:
        ``(arity, n_gates, 1)`` ``uint64`` mask — all-ones where the pin
        is inverted, zero otherwise (XOR-ready against packed rows).
    invert_out:
        ``(n_gates, 1)`` ``uint64`` mask for the output literal.
    """

    level: int
    outputs: np.ndarray
    inputs: np.ndarray
    invert_in: np.ndarray
    invert_out: np.ndarray

    @property
    def arity(self) -> int:
        return self.inputs.shape[0]

    def __len__(self) -> int:
        return len(self.outputs)


@dataclasses.dataclass(frozen=True)
class TypeGroup:
    """All gates of one (type, arity) bucket, ignoring levels.

    Order-free per-gate computations (leakage pricing, statistics) batch
    on these instead of the level-split :class:`GateBatch` list, which
    keeps the number of array operations independent of circuit depth.
    """

    gtype: GateType
    outputs: np.ndarray
    inputs: np.ndarray

    @property
    def arity(self) -> int:
        return self.inputs.shape[0]

    def __len__(self) -> int:
        return len(self.outputs)


@dataclasses.dataclass(frozen=True)
class LevelizedSchedule:
    """A circuit's combinational part as dense, batched index arrays.

    Attributes
    ----------
    lines:
        Every simulated line, combinational inputs first, then gate
        outputs in topological order.  Index into this tuple = the line's
        row in a backend's state matrix.
    line_index:
        Inverse of ``lines``.
    input_lines:
        The combinational inputs (primary inputs + DFF outputs), i.e. the
        first ``len(input_lines)`` entries of ``lines``.
    batches:
        Topologically valid evaluation order, one entry per
        (level, type, arity) bucket, ascending level.
    fused_program:
        The same gates with every level's AND-family bucket collapsed
        into one :class:`FusedAndBatch`; non-AND-family gates keep their
        plain :class:`GateBatch`.  Ascending level order, topologically
        valid.
    type_groups:
        Level-free (type, arity) buckets over the same gates.
    version:
        ``Circuit.version`` this schedule was built from.
    """

    lines: tuple[str, ...]
    line_index: dict[str, int]
    input_lines: tuple[str, ...]
    batches: tuple[GateBatch, ...]
    fused_program: tuple[GateBatch | FusedAndBatch, ...]
    type_groups: tuple[TypeGroup, ...]
    version: int

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def ones_index(self) -> int:
        """Row index of the constant-ones padding word (one past lines)."""
        return len(self.lines)

    @property
    def n_gates(self) -> int:
        return sum(len(batch) for batch in self.batches)


def build_schedule(circuit: Circuit) -> LevelizedSchedule:
    """Levelize ``circuit`` and group its gates into evaluation batches."""
    rows = cached_row_table(circuit)
    lines = rows.lines
    line_index = rows.index
    inputs = lines[:rows.n_inputs]
    topo = lines[rows.n_inputs:]

    buckets: dict[tuple[int, str, int], list[str]] = defaultdict(list)
    for line in topo:
        gate = circuit.gates[line]
        key = (circuit.level_of(line), gate.gtype.value, len(gate.inputs))
        buckets[key].append(line)

    def index_arrays(outs: list[str]) -> tuple[np.ndarray, np.ndarray]:
        out_idx = np.array([line_index[o] for o in outs], dtype=np.intp)
        arity = len(circuit.gates[outs[0]].inputs)
        in_idx = np.array(
            [[line_index[src] for src in circuit.gates[o].inputs]
             for o in outs],
            dtype=np.intp).reshape(len(outs), arity).T
        return out_idx, np.ascontiguousarray(in_idx)

    batches = []
    for (level, gtype_value, _arity), outs in sorted(buckets.items()):
        out_idx, in_idx = index_arrays(outs)
        batches.append(GateBatch(gtype=GateType(gtype_value), level=level,
                                 outputs=out_idx, inputs=in_idx))

    ones_index = len(lines)
    fused: list[GateBatch | FusedAndBatch] = []
    by_level: dict[int, list[GateBatch]] = defaultdict(list)
    for batch in batches:
        by_level[batch.level].append(batch)
    for level in sorted(by_level):
        andish = [b for b in by_level[level] if b.gtype in AND_FAMILY]
        fused.extend(b for b in by_level[level] if b.gtype not in AND_FAMILY)
        if not andish:
            continue
        n_gates = sum(len(b) for b in andish)
        arity = max(b.arity for b in andish)
        out_idx = np.empty(n_gates, dtype=np.intp)
        in_idx = np.full((arity, n_gates), ones_index, dtype=np.intp)
        inv_in = np.zeros((arity, n_gates, 1), dtype="<u8")
        inv_out = np.zeros((n_gates, 1), dtype="<u8")
        all_ones = np.uint64(0xFFFFFFFFFFFFFFFF)
        pos = 0
        for b in andish:
            stop = pos + len(b)
            out_idx[pos:stop] = b.outputs
            in_idx[:b.arity, pos:stop] = b.inputs
            in_inverted, out_inverted = AND_FAMILY[b.gtype]
            if in_inverted:
                inv_in[:b.arity, pos:stop, 0] = all_ones
            if out_inverted:
                inv_out[pos:stop, 0] = all_ones
            pos = stop
        fused.append(FusedAndBatch(level=level, outputs=out_idx,
                                   inputs=in_idx, invert_in=inv_in,
                                   invert_out=inv_out))

    type_buckets: dict[tuple[str, int], list[str]] = defaultdict(list)
    for line in topo:
        gate = circuit.gates[line]
        type_buckets[(gate.gtype.value, len(gate.inputs))].append(line)
    groups = []
    for (gtype_value, _arity), outs in sorted(type_buckets.items()):
        out_idx, in_idx = index_arrays(outs)
        groups.append(TypeGroup(gtype=GateType(gtype_value),
                                outputs=out_idx, inputs=in_idx))

    return LevelizedSchedule(
        lines=lines,
        line_index=line_index,
        input_lines=inputs,
        batches=tuple(batches),
        fused_program=tuple(fused),
        type_groups=tuple(groups),
        version=circuit.version,
    )


_SCHEDULE_CACHE: "weakref.WeakKeyDictionary[Circuit, LevelizedSchedule]" = \
    weakref.WeakKeyDictionary()


def cached_schedule(circuit: Circuit) -> LevelizedSchedule:
    """Memoized :func:`build_schedule`, invalidated by circuit mutation."""
    schedule = _SCHEDULE_CACHE.get(circuit)
    if schedule is None or schedule.version != circuit.version:
        schedule = build_schedule(circuit)
        _SCHEDULE_CACHE[circuit] = schedule
    return schedule
