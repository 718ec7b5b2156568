"""Tests for cell leakage characterisation."""

import itertools
import re

import pytest

from repro.errors import CharacterizationError
from repro.netlist.gates import GateType
from repro.spice.characterize import (
    cell_leakage_table,
    characterize_inv,
    characterize_nand,
    characterize_nor,
)
from repro.spice.constants import (
    PAPER_NAND2_LEAKAGE_NA,
    default_tech,
)


class TestNand2PaperAnchor:
    def test_matches_figure2(self):
        table = characterize_nand(2)
        for pattern, target in PAPER_NAND2_LEAKAGE_NA.items():
            assert table[pattern] == pytest.approx(target, rel=0.02)

    def test_ordering_01_below_10(self):
        """The stack-position asymmetry the reordering step exploits."""
        table = characterize_nand(2)
        assert table[(0, 1)] < table[(1, 0)]

    def test_all_ones_is_worst(self):
        table = characterize_nand(2)
        assert table[(1, 1)] == max(table.values())


class TestCharacterizeShapes:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_nand_complete_tables(self, k):
        table = characterize_nand(k)
        assert set(table) == set(itertools.product((0, 1), repeat=k))
        assert all(v > 0 for v in table.values())

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_nor_complete_tables(self, k):
        table = characterize_nor(k)
        assert set(table) == set(itertools.product((0, 1), repeat=k))
        assert all(v > 0 for v in table.values())

    def test_arity_bounds(self):
        with pytest.raises(CharacterizationError):
            characterize_nand(5)
        with pytest.raises(CharacterizationError):
            characterize_nor(0)

    def test_inv_two_entries(self):
        table = characterize_inv()
        assert set(table) == {(0,), (1,)}

    def test_nor_dual_asymmetry(self):
        """NOR2 should show the mirrored stack asymmetry: the single-one
        state with the OFF PMOS nearest VDD differs from the other."""
        table = characterize_nor(2)
        assert table[(0, 1)] != table[(1, 0)]


class TestCompositeCells:
    def test_buff_is_two_inverters(self):
        buff = cell_leakage_table(GateType.BUFF, 1)
        inv = characterize_inv()
        # BUFF(0) = INV(0) + INV(1): the internal node is inverted.
        assert buff[(0,)] == pytest.approx(inv[(0,)] + inv[(1,)])
        assert buff[(1,)] == pytest.approx(inv[(1,)] + inv[(0,)])

    def test_and_is_nand_plus_inv(self):
        and2 = cell_leakage_table(GateType.AND, 2)
        nand2 = characterize_nand(2)
        inv = characterize_inv()
        for pattern in nand2:
            internal = 0 if all(pattern) else 1
            assert and2[pattern] == pytest.approx(
                nand2[pattern] + inv[(internal,)])

    def test_xor_symmetry_two_input(self):
        xor2 = cell_leakage_table(GateType.XOR, 2)
        assert set(xor2) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(v > 0 for v in xor2.values())

    def test_mux2_table_complete(self):
        mux = cell_leakage_table(GateType.MUX2, 3)
        assert len(mux) == 8

    def test_xor3_table_complete(self):
        xor3 = cell_leakage_table(GateType.XOR, 3)
        assert len(xor3) == 8

    def test_const_cells_free(self):
        assert cell_leakage_table(GateType.CONST0, 0) == {(): 0.0}

    def test_dff_flat_positive(self):
        table = cell_leakage_table(GateType.DFF, 1)
        assert table[(0,)] == table[(1,)] > 0


class TestCaching:
    def test_same_params_same_object(self):
        a = cell_leakage_table(GateType.NAND, 2)
        b = cell_leakage_table(GateType.NAND, 2)
        assert a is b

    def test_different_corner_differs(self):
        base = cell_leakage_table(GateType.NAND, 2)
        hot = cell_leakage_table(
            GateType.NAND, 2, default_tech().replace(s_n=1e5))
        assert hot is not base
        assert hot[(1, 0)] != base[(1, 0)]


class TestArityErrors:
    """Every gate type at every arity 0-5 either yields a table over
    patterns of that many inputs or fails with a
    :class:`CharacterizationError` naming the gate and the arity."""

    @pytest.mark.parametrize("arity", range(6))
    @pytest.mark.parametrize("gtype", list(GateType), ids=str)
    def test_table_or_characterization_error(self, gtype, arity):
        try:
            table = cell_leakage_table(gtype, arity)
        except CharacterizationError as exc:
            assert re.search(rf"\b{gtype} with {arity} inputs\b", str(exc))
            return
        assert table
        assert all(len(pattern) == arity for pattern in table)

    @pytest.mark.parametrize("gtype, arity", [
        (GateType.AND, 1), (GateType.OR, 1), (GateType.BUFF, 0),
        (GateType.XOR, 0), (GateType.XNOR, 0)])
    def test_composites_below_their_arity_rejected(self, gtype, arity):
        with pytest.raises(CharacterizationError,
                           match=f"{gtype} with {arity} inputs"):
            cell_leakage_table(gtype, arity)
