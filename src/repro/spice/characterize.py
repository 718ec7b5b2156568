"""Per-pattern leakage characterisation of library cells.

The paper avoids "complex calculations for estimation of total leakage" by
tabulating HSPICE BSIM4 results per gate and input pattern.  This module
produces the same artefact — ``{input pattern: leakage current in nA}``
per cell — from the analytical device models:

* NAND/NOR/INV are characterised at transistor level: subthreshold current
  through the blocked network (series stacks solved numerically by
  :mod:`repro.spice.stack`) plus gate direct tunnelling of every device,
  with oxide voltages taken from the solved node potentials.
* Composite cells (BUFF, AND, OR, XOR, XNOR, MUX2) are characterised by
  structural composition: evaluate the internal nodes of a small
  NAND/INV implementation and sum the primitive tables.

Pin convention (important for the paper's input-reordering step): for a
NAND, ``inputs[0]`` gates the NMOS nearest **ground**; for a NOR,
``inputs[0]`` gates the PMOS nearest **VDD**.  Under this convention the
NAND2 pattern ``(0, 1)`` is the low-leakage single-off state (73 nA in
Figure 2) and ``(1, 0)`` the high one (264 nA).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

from repro.errors import CharacterizationError, NetlistError
from repro.netlist.gates import GateType, check_arity, eval_gate
from repro.spice.bsim import gate_leakage_off, gate_leakage_on
from repro.spice.constants import (
    TechParams,
    default_tech,
    nmos_width,
    pmos_width,
)
from repro.spice.stack import blocked_stack_current, parallel_off_current

__all__ = [
    "characterize_inv",
    "characterize_nand",
    "characterize_nor",
    "cell_leakage_table",
    "MAX_CELL_ARITY",
]

#: Largest stack depth characterised at transistor level (NAND4 / NOR4).
MAX_CELL_ARITY = 4

LeakageTable = dict[tuple[int, ...], float]


# --------------------------------------------------------------------- #
# transistor-level primitives
# --------------------------------------------------------------------- #

def characterize_nand(k: int, params: TechParams | None = None
                      ) -> LeakageTable:
    """Leakage table of a ``k``-input NAND (patterns are ``(a0..ak-1)``)."""
    params = params or default_tech()
    if not 1 <= k <= MAX_CELL_ARITY:
        raise CharacterizationError(f"NAND arity {k} unsupported")
    w_n = nmos_width(k)
    w_p = pmos_width(1)
    table: LeakageTable = {}
    for pattern in itertools.product((0, 1), repeat=k):
        table[pattern] = _nand_state_leakage(params, pattern, w_n, w_p)
    return table


def _nand_state_leakage(params: TechParams, pattern: Sequence[int],
                        w_n: float, w_p: float) -> float:
    vdd = params.vdd
    total = 0.0
    if all(pattern):
        # Output 0: pull-up (parallel PMOS, all OFF) is blocked.
        total += parallel_off_current(params, len(pattern), w_p, "p")
        for _ in pattern:
            # Every NMOS is ON with its channel at ground.
            total += gate_leakage_on(params, vdd, w_n, "n")
            # Every PMOS is OFF with |Vgd| = VDD (gate at VDD, drain at 0).
            total += gate_leakage_off(params, vdd, w_p, "p")
        return total

    # Output 1: pull-down stack (rail->output == pattern order) is blocked.
    solution = blocked_stack_current(
        params, [bool(v) for v in pattern], w_n, "n")
    total += solution.current_na
    nodes = solution.node_voltages
    for i, value in enumerate(pattern):
        if value:  # ON NMOS: channel sits at its source node
            total += gate_leakage_on(params, vdd - nodes[i], w_n, "n")
        else:      # OFF NMOS: edge tunnelling at the drain overlap
            total += gate_leakage_off(params, nodes[i + 1], w_n, "n")
    for value in pattern:
        if value == 0:  # ON PMOS, full oxide drop
            total += gate_leakage_on(params, vdd, w_p, "p")
        # OFF PMOS has gate and drain both at VDD: no tunnelling drop.
    return total


def characterize_nor(k: int, params: TechParams | None = None
                     ) -> LeakageTable:
    """Leakage table of a ``k``-input NOR (patterns are ``(a0..ak-1)``)."""
    params = params or default_tech()
    if not 1 <= k <= MAX_CELL_ARITY:
        raise CharacterizationError(f"NOR arity {k} unsupported")
    w_n = nmos_width(1)
    w_p = pmos_width(k)
    table: LeakageTable = {}
    for pattern in itertools.product((0, 1), repeat=k):
        table[pattern] = _nor_state_leakage(params, pattern, w_n, w_p)
    return table


def _nor_state_leakage(params: TechParams, pattern: Sequence[int],
                       w_n: float, w_p: float) -> float:
    vdd = params.vdd
    total = 0.0
    if not any(pattern):
        # Output 1: pull-down (parallel NMOS, all OFF) is blocked.
        total += parallel_off_current(params, len(pattern), w_n, "n")
        for _ in pattern:
            total += gate_leakage_on(params, vdd, w_p, "p")   # ON PMOS
            total += gate_leakage_off(params, vdd, w_n, "n")  # OFF NMOS EDT
        return total

    # Output 0: pull-up stack blocked.  PMOS is ON when its input is 0.
    # Solved in the mirrored frame: frame voltage w = VDD - v.
    solution = blocked_stack_current(
        params, [v == 0 for v in pattern], w_p, "p")
    total += solution.current_na
    nodes = solution.node_voltages  # frame voltages, rail (VDD) at index 0
    for i, value in enumerate(pattern):
        if value == 0:  # ON PMOS: |Vox| = |0 - Vsource| = vdd - frame node
            total += gate_leakage_on(params, vdd - nodes[i], w_p, "p")
        else:           # OFF PMOS: |Vgd| = vdd - (vdd - frame drain)
            total += gate_leakage_off(params, nodes[i + 1], w_p, "p")
    for value in pattern:
        if value == 1:  # ON NMOS pulling the output low
            total += gate_leakage_on(params, vdd, w_n, "n")
        # OFF NMOS: gate 0, drain 0 -> no drop.
    return total


def characterize_inv(params: TechParams | None = None) -> LeakageTable:
    """Leakage table of an inverter, patterns ``(0,)`` and ``(1,)``."""
    params = params or default_tech()
    vdd = params.vdd
    w_n = nmos_width(1)
    w_p = pmos_width(1)
    off_n = blocked_stack_current(params, [False], w_n, "n").current_na
    off_p = blocked_stack_current(params, [False], w_p, "p").current_na
    low_in = (off_n
              + gate_leakage_off(params, vdd, w_n, "n")
              + gate_leakage_on(params, vdd, w_p, "p"))
    high_in = (off_p
               + gate_leakage_off(params, vdd, w_p, "p")
               + gate_leakage_on(params, vdd, w_n, "n"))
    return {(0,): low_in, (1,): high_in}


# --------------------------------------------------------------------- #
# composite cells
# --------------------------------------------------------------------- #

# Each composite is a list of (node, kind, input node names); "kind" refers
# to a primitive characterised above.  Cell inputs are named i0, i1, ...
_Composite = list[tuple[str, str, tuple[str, ...]]]


def _xor2(a: str, b: str, out: str, tag: str) -> _Composite:
    """Four-NAND XOR2 implementation."""
    m = f"{tag}_m"
    p = f"{tag}_p"
    q = f"{tag}_q"
    return [
        (m, "NAND2", (a, b)),
        (p, "NAND2", (a, m)),
        (q, "NAND2", (b, m)),
        (out, "NAND2", (p, q)),
    ]


def _composite_structure(gtype: GateType, arity: int) -> _Composite:
    """NAND/NOR/INV implementation of a composite cell."""
    ins = [f"i{k}" for k in range(arity)]
    if gtype is GateType.BUFF:
        return [("t0", "INV", (ins[0],)), ("out", "INV", ("t0",))]
    if gtype is GateType.AND:
        return [("t0", f"NAND{arity}", tuple(ins)), ("out", "INV", ("t0",))]
    if gtype is GateType.OR:
        return [("t0", f"NOR{arity}", tuple(ins)), ("out", "INV", ("t0",))]
    if gtype in (GateType.XOR, GateType.XNOR):
        structure: _Composite = []
        acc = ins[0]
        for idx, nxt in enumerate(ins[1:]):
            out = f"x{idx}"
            structure.extend(_xor2(acc, nxt, out, f"s{idx}"))
            acc = out
        if gtype is GateType.XNOR:
            structure.append(("out", "INV", (acc,)))
        else:
            structure.append(("out", "BUFREF", (acc,)))  # alias, no cell
        return structure
    if gtype is GateType.MUX2:
        # inputs: (select, d0, d1); out = sel ? d1 : d0
        return [
            ("sb", "INV", ("i0",)),
            ("u", "NAND2", ("i1", "sb")),
            ("v", "NAND2", ("i2", "i0")),
            ("out", "NAND2", ("u", "v")),
        ]
    raise CharacterizationError(f"no composite structure for {gtype}")


_PRIM_EVAL = {
    "INV": GateType.NOT,
    "NAND2": GateType.NAND, "NAND3": GateType.NAND, "NAND4": GateType.NAND,
    "NOR2": GateType.NOR, "NOR3": GateType.NOR, "NOR4": GateType.NOR,
}


def _primitive_table(kind: str, params: TechParams) -> LeakageTable:
    if kind == "INV":
        return characterize_inv(params)
    if kind.startswith("NAND"):
        return characterize_nand(int(kind[4:]), params)
    if kind.startswith("NOR"):
        return characterize_nor(int(kind[3:]), params)
    raise CharacterizationError(f"unknown primitive {kind!r}")


def _characterize_composite(gtype: GateType, arity: int,
                            params: TechParams) -> LeakageTable:
    structure = _composite_structure(gtype, arity)
    prim_tables = {
        kind: _primitive_table(kind, params)
        for _name, kind, _ins in structure if kind != "BUFREF"
    }
    table: LeakageTable = {}
    for pattern in itertools.product((0, 1), repeat=arity):
        values = {f"i{k}": v for k, v in enumerate(pattern)}
        leak = 0.0
        for name, kind, in_names in structure:
            in_values = tuple(values[n] for n in in_names)
            if kind == "BUFREF":
                values[name] = in_values[0]
                continue
            values[name] = eval_gate(_PRIM_EVAL[kind], in_values)
            leak += prim_tables[kind][in_values]
        table[pattern] = leak
    return table


# --------------------------------------------------------------------- #
# dispatcher
# --------------------------------------------------------------------- #

#: cells built on one NAND/NOR stack of ``arity`` transistors
_STACKED = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR)


@functools.lru_cache(maxsize=None)
def cell_leakage_table(gtype: GateType, arity: int,
                       params: TechParams | None = None) -> LeakageTable:
    """Leakage table (pattern tuple -> nA) for any supported cell.

    ``params=None`` uses the calibrated default technology.  Results are
    cached per ``(gtype, arity, params)``; :class:`TechParams` is frozen
    and hashable, so distinct corners get distinct cache slots.  An
    ``arity`` that no netlist gate of ``gtype`` can have raises
    :class:`CharacterizationError`.
    """
    try:
        check_arity(gtype, arity)
    except NetlistError as exc:
        raise CharacterizationError(
            f"cannot characterise {gtype} with {arity} inputs ({exc})"
        ) from None
    if gtype in _STACKED and arity > MAX_CELL_ARITY:
        raise CharacterizationError(
            f"cannot characterise {gtype} with {arity} inputs (stacks "
            f"of at most {MAX_CELL_ARITY} are characterised)")
    params = params or default_tech()
    if gtype is GateType.NAND:
        return characterize_nand(arity, params)
    if gtype is GateType.NOR:
        return characterize_nor(arity, params)
    if gtype is GateType.NOT:
        return characterize_inv(params)
    if gtype in (GateType.CONST0, GateType.CONST1):
        return {(): 0.0}
    if gtype is GateType.DFF:
        # Rough constant: a transmission-gate flop is ~4 inverters plus two
        # NAND2-equivalents of clocked leakage; not pattern-resolved and
        # excluded from the paper's combinational-part numbers anyway.
        inv = characterize_inv(params)
        nand = characterize_nand(2, params)
        mean_inv = sum(inv.values()) / len(inv)
        mean_nand = sum(nand.values()) / len(nand)
        flat = 4.0 * mean_inv + 2.0 * mean_nand
        return {(0,): flat, (1,): flat}
    if gtype in (GateType.BUFF, GateType.AND, GateType.OR,
                 GateType.XOR, GateType.XNOR, GateType.MUX2):
        return _characterize_composite(gtype, arity, params)
    raise CharacterizationError(f"cannot characterise {gtype}")
