"""Integer row tables for row-space logic simulation.

A :class:`RowTable` flattens a circuit's combinational part into integer
rows: combinational inputs first, then gate outputs in topological
order, each gate row carrying a small-int opcode and its fan-in rows.
The big-int good machine (:mod:`repro.simulation.backends`)
evaluates the rows in order with :func:`eval_row`; the scalar fault
replay (:mod:`repro.atpg.faultsim`) walks their sink rows.

Row tables are pure derived data.  :func:`cached_row_table` memoizes
them per circuit object, keyed on :attr:`Circuit.version` so mutations
invalidate the cache automatically.
"""

from __future__ import annotations

import dataclasses
import functools
import weakref

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.simulation.eval2 import comb_input_lines

__all__ = ["RowTable", "build_row_table", "cached_row_table", "eval_row",
           "OPCODES", "GATE_TYPES"]

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
