"""Exhaustive check of PODEM's pair-code gate tables.

The engine holds both machines of a line in one code ``3 * good + bad``
and evaluates a gate by walking its input codes through lookup tables.
For every opcode, every arity from 1 to 4 the opcode takes (constants
take none) and every combination of the nine codes, the table walk must
equal the componentwise three-valued evaluation of the reference oracle
on the good and on the faulty halves.  The fault site's forced tables
must keep the good half and pin the faulty half to the stuck value.
"""

from __future__ import annotations

import itertools

import pytest

from podem_reference import _eval_op
from repro.atpg.podem import (
    _AND,
    _BUF,
    _C0,
    _C1,
    _FORCED,
    _MUX,
    _NAND,
    _NOR,
    _NOT,
    _OPEN,
    _OR,
    _TABLES,
    _XNOR,
    _XOR,
    _evaluate,
)
from repro.netlist.gates import X

ARITIES = {
    _AND: (1, 2, 3, 4), _NAND: (1, 2, 3, 4),
    _OR: (1, 2, 3, 4), _NOR: (1, 2, 3, 4),
    _XOR: (1, 2, 3, 4), _XNOR: (1, 2, 3, 4),
    _NOT: (1,), _BUF: (1,), _MUX: (3,), _C0: (0,), _C1: (0,),
}
CASES = [(op, arity) for op, arities in ARITIES.items()
         for arity in arities]


def _componentwise(op: int, codes: tuple[int, ...]) -> tuple[int, int]:
    fanin = tuple(range(len(codes)))
    good = _eval_op(op, [c // 3 for c in codes], fanin)
    bad = _eval_op(op, [c % 3 for c in codes], fanin)
    return good, bad


@pytest.mark.parametrize("op,arity", CASES)
def test_table_walk_matches_componentwise_evaluation(op, arity):
    gate = (*_TABLES[op], tuple(range(arity)))
    for codes in itertools.product(range(9), repeat=arity):
        good, bad = _componentwise(op, codes)
        assert _evaluate(gate, list(codes)) == 3 * good + bad, codes


@pytest.mark.parametrize("stuck", [0, 1])
@pytest.mark.parametrize("op,arity", CASES)
def test_forced_fault_site_pins_faulty_half(op, arity, stuck):
    start, table, _final = _TABLES[op]
    forced = (start, table, _FORCED[op][stuck], tuple(range(arity)))
    for codes in itertools.product(range(9), repeat=arity):
        good, _bad = _componentwise(op, codes)
        assert _evaluate(forced, list(codes)) == 3 * good + stuck, codes


def test_open_codes_are_those_with_an_x_half():
    for good, bad in itertools.product((0, 1, X), repeat=2):
        assert _OPEN[3 * good + bad] == (X in (good, bad))
