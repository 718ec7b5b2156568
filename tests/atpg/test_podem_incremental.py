"""Differential tests: incremental PODEM implication vs the reference.

After every ``assign``/``unassign`` along real ``generate_test`` runs,
the engine's good and faulty machines must equal a from-scratch
implication of the current assignment (``podem_reference``), and its
incremental queries (``detected``, ``d_frontier``) must answer as the
original scans do.  Whole PODEM results must also equal those of the
reference engine, which runs the same decision procedure on the
original implication.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from gate_mix import sprinkle_gates
from podem_reference import ReferencePodemEngine, reference_values
from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import Fault, all_faults
from repro.atpg.podem import PodemEngine, generate_test
from repro.benchgen import generate_circuit
from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.errors import AtpgError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.techmap.mapper import technology_map


class CheckedEngine(PodemEngine):
    """Compares the incremental state with the reference after each step."""

    steps = 0

    def _check(self) -> None:
        good, bad = reference_values(self)
        assert self.good == good
        assert self.bad == bad
        assert self.detected() == ReferencePodemEngine.detected(self)
        assert self.d_frontier() == ReferencePodemEngine.d_frontier(self)
        CheckedEngine.steps += 1

    def _retarget(self, fault: Fault) -> None:
        super()._retarget(fault)
        assert not self.trail
        self._check()

    def assign(self, li: int, value: int) -> None:
        super().assign(li, value)
        self._check()

    def unassign(self, li: int) -> None:
        super().unassign(li)
        self._check()


def _universe(circuit: Circuit) -> list[Fault]:
    return collapse_faults(circuit, all_faults(circuit))


def _assert_equivalent(circuit: Circuit, faults: list[Fault],
                       max_backtracks: int = 100) -> None:
    checked = CheckedEngine(circuit)
    reference = ReferencePodemEngine(circuit)
    for fault in faults:
        got = generate_test(circuit, fault, max_backtracks, engine=checked)
        want = generate_test(circuit, fault, max_backtracks,
                             engine=reference)
        assert got == want, str(fault)


class TestAgainstReference:
    def test_s27_every_fault(self, s27):
        _assert_equivalent(s27, all_faults(s27))

    def test_s27_mapped_every_collapsed_fault(self, s27_mapped):
        _assert_equivalent(s27_mapped, _universe(s27_mapped))

    def test_toy_scan_circuit_every_fault(self, toy):
        _assert_equivalent(toy, all_faults(toy))

    def test_mapped_iscas_every_collapsed_fault(self):
        circuit = technology_map(generate_circuit("s386", 1))
        before = CheckedEngine.steps
        _assert_equivalent(circuit, _universe(circuit), max_backtracks=20)
        # the run exercised real searches, not just retargets
        assert CheckedEngine.steps - before > 5 * len(_universe(circuit))

    def test_backtracks_restore_exact_state(self, s27_mapped):
        engine = PodemEngine(s27_mapped)
        engine._retarget(_universe(s27_mapped)[0])
        start = (list(engine.good), list(engine.bad), engine.detected())
        inputs = engine.input_idx
        engine.assign(inputs[0], 1)
        after_first = (list(engine.good), list(engine.bad))
        engine.assign(inputs[1], 0)
        engine.unassign(inputs[1])
        assert (engine.good, engine.bad) == after_first
        engine.unassign(inputs[0])
        assert (engine.good, engine.bad, engine.detected()) == start
        assert not engine.trail

    def test_unassign_out_of_order_rejected(self, s27_mapped):
        engine = PodemEngine(s27_mapped)
        engine._retarget(_universe(s27_mapped)[0])
        engine.assign(engine.input_idx[0], 1)
        engine.assign(engine.input_idx[1], 1)
        with pytest.raises(AtpgError, match="most recent assign"):
            engine.unassign(engine.input_idx[0])

    def test_assign_of_binary_line_rejected(self, s27_mapped):
        engine = PodemEngine(s27_mapped)
        engine._retarget(_universe(s27_mapped)[0])
        engine.assign(engine.input_idx[0], 1)
        trail = list(engine.trail)
        with pytest.raises(AtpgError, match="not an X line"):
            engine.assign(engine.input_idx[0], 0)
        assert engine.trail == trail
        assert engine.assignment == {engine.input_idx[0]: 1}

    def test_decisions_counted(self, s27_mapped):
        engine = PodemEngine(s27_mapped)
        assigns = [0]
        assign = engine.assign

        def counting(li: int, value: int) -> None:
            assigns[0] += 1
            assign(li, value)

        engine.assign = counting  # type: ignore[method-assign]
        for fault in _universe(s27_mapped):
            assigns[0] = 0
            result = generate_test(s27_mapped, fault, engine=engine)
            assert result.detected
            assert result.decisions == assigns[0] - result.backtracks


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       n_inputs=st.integers(2, 5),
       n_dffs=st.integers(1, 3),
       n_gates=st.integers(6, 28))
def test_generated_netlists_match_reference(seed, n_inputs, n_dffs,
                                            n_gates):
    stats = Iscas89Stats("hyp", n_inputs, 2, n_dffs, n_gates)
    circuit = sprinkle_gates(generate_from_stats(stats, seed), seed)
    _assert_equivalent(circuit, all_faults(circuit), max_backtracks=20)


def test_generated_netlists_cover_every_gate_kind():
    seen: set[GateType] = set()
    for seed in range(10):
        stats = Iscas89Stats("hyp", 4, 2, 2, 24)
        circuit = sprinkle_gates(generate_from_stats(stats, seed), seed)
        seen |= {gate.gtype for gate in circuit.gates.values()}
    assert {GateType.XOR, GateType.XNOR, GateType.MUX2, GateType.CONST0,
            GateType.CONST1} <= seen
