"""Oracles for the SAT redundancy prover.

The prover (:mod:`repro.atpg.sat`) turns PODEM aborts into "untestable"
verdicts, so a wrong UNSAT would silently shrink the coverage
denominator, and its "testable" models become the tests of those
faults.  It is pinned from three sides:

1. on the full collapsed universes of s27 and the six cold Table-I
   circuits, every verdict PODEM (limit 100) reaches agrees with it:
   redundant iff untestable, testable iff detected;
2. every "testable" model, its don't-cares filled, detects its fault
   under fault simulation;
3. on small generated netlists with every gate kind, it matches
   exhaustive simulation fault by fault.

One prover answers a whole universe, so these also check that nothing a
fault leaves behind (learned clauses, reused variable slots) changes a
later verdict.

The good-machine constants and the structural fast path
(:meth:`RedundancyProver.settles`) are checked against the frozen
per-fault miter in ``sat_reference.py`` (every settled fault is
redundant there, and every status is its status) and against
exhaustive simulation (every level-0 good value is a constant of the
circuit, and every constant is found).  Every vector ``generate_tests``
builds from a model is checked against the frozen miter too, with all
comb inputs fixed to the vector.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import generate_podem_pins as pins
import repro.atpg.generate as generate_module
import sat_reference
from gate_mix import sprinkle_gates
from repro.atpg.faults import Fault, all_faults
from repro.atpg.faultsim import fault_simulate
from repro.atpg.generate import AtpgConfig, generate_tests
from repro.atpg.podem import PodemEngine
from repro.atpg.sat import (
    REDUNDANT,
    TESTABLE,
    UNKNOWN,
    RedundancyProver,
    SatResult,
)
from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.errors import AtpgError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.obs.metrics import get_registry
from repro.scan.testview import ScanDesign
from repro.simulation.bitsim import pack_input_vectors, simulate_packed
from repro.simulation.eval2 import comb_input_lines


@functools.lru_cache(maxsize=None)
def _sat_results(name: str):
    """(circuit, universe, SAT results, prover) with one prover per
    circuit."""
    circuit = pins.mapped_circuit(name)
    prover = RedundancyProver(PodemEngine(circuit))
    faults = pins.universe(circuit)
    results = [prover.prove(fault) for fault in faults]
    return circuit, faults, results, prover


def _assert_only_good_machine_clauses_kept(prover: RedundancyProver):
    """Every clause a fault's search learns from its guarded clauses
    carries the guard and is dropped with the fault; what stays speaks
    of good-machine variables only, so reused faulty and D slots start
    clean for the next fault."""
    kept = [clause for clauses in prover.watches.values()
            for clause in clauses]
    kept += [[lit, implied] for lit, lits in enumerate(prover.imp)
             for implied in lits]
    assert all(lit >> 1 < prover.n for clause in kept for lit in clause)
    assert not prover.fwatches and not prover.fimp


@pytest.mark.parametrize("name", pins.PODEM_CIRCUITS)
def test_sat_agrees_with_every_podem_verdict(name):
    _circuit, faults, results, _prover = _sat_results(name)
    records = pins.cached_records(name)
    assert [r["fault"] for r in records] == [
        f"{f.line}/{f.stuck_at}" for f in faults]
    expected = {"detected": TESTABLE, "untestable": REDUNDANT}
    mismatches = [(str(fault), record["status"], result.status)
                  for fault, record, result in zip(faults, records, results)
                  if record["status"] in expected
                  and result.status != expected[record["status"]]]
    assert not mismatches
    assert all(result.status != UNKNOWN for result in results)


@pytest.mark.parametrize("name", pins.PODEM_CIRCUITS)
def test_testable_models_detect_their_fault(name):
    circuit, faults, results, _prover = _sat_results(name)
    rng = random.Random(name)
    tested = [(fault, result.assignment)
              for fault, result in zip(faults, results)
              if result.status == TESTABLE]
    vectors = [{line: assignment.get(line, rng.randrange(2))
                for line in comb_input_lines(circuit)}
               for _fault, assignment in tested]
    words, n = pack_input_vectors(circuit, vectors)
    detected = fault_simulate(circuit, [fault for fault, _ in tested],
                              words, n, drop=False).detected
    missed = [str(fault) for k, (fault, _) in enumerate(tested)
              if not detected.get(fault, 0) >> k & 1]
    assert not missed


def _frozen_miter_detects(circuit, fault: Fault,
                          vector: dict[str, int]) -> bool:
    """Whether the frozen per-fault miter is satisfiable with every comb
    input fixed to ``vector`` as a level-0 unit: with no input left to
    decide, that says whether ``vector`` detects ``fault``."""
    prover = sat_reference.RedundancyProver(PodemEngine(circuit))
    for line in comb_input_lines(circuit):
        lit = 2 * prover.index[line] + 1 - vector[line]
        assert not prover.val[lit]
        prover._enqueue(lit, None)
    assert prover._propagate() is None
    return prover.prove(fault).status == TESTABLE


def test_sat_path_vectors_detect_their_target_under_the_frozen_miter(
        monkeypatch):
    """Every vector ``generate_tests`` builds from a SAT model keeps the
    model's values and detects its fault under the frozen miter, and
    the check rejects a fault the vector misses."""
    decided: list[tuple[Fault, str, dict[str, int]]] = []
    verdict = generate_module._podem_verdict

    def spy(prover, fault, max_backtracks):
        outcome, path = verdict(prover, fault, max_backtracks)
        if outcome.detected:
            decided.append((fault, path, outcome.assignment))
        return outcome, path

    monkeypatch.setattr(generate_module, "_podem_verdict", spy)
    checked = 0
    for name in pins.TESTSET_CIRCUITS:
        design = ScanDesign.full_scan(pins.mapped_circuit(name))
        circuit = design.circuit
        decided.clear()
        vectors = generate_tests(
            design, AtpgConfig(seed=pins.SEED, compaction=False)).vectors
        # without compaction each detected verdict appended one vector,
        # in order, after the random phase's
        tail = vectors[len(vectors) - len(decided):]
        for (fault, path, model), vector in zip(decided, tail):
            if path != "sat":
                continue
            values = generate_module._vector_to_assignment(design, vector)
            assert {line: values[line] for line in model} == model
            assert _frozen_miter_detects(circuit, fault, values), fault
            checked += 1
            words, n = pack_input_vectors(circuit, [values])
            missed = fault_simulate(circuit, pins.universe(circuit), words,
                                    n).remaining[0]
            assert not _frozen_miter_detects(circuit, missed, values)
    assert checked >= 20


def test_verdicts_do_not_depend_on_history():
    """A prover that saw the universe backwards answers as the one
    that saw it forwards."""
    circuit, faults, forward, _prover = _sat_results("s444")
    prover = RedundancyProver(PodemEngine(circuit))
    backward = [prover.prove(fault).status for fault in reversed(faults)]
    assert backward[::-1] == [result.status for result in forward]


@pytest.mark.parametrize("name", pins.PODEM_CIRCUITS)
def test_only_good_machine_clauses_outlive_a_fault(name):
    _assert_only_good_machine_clauses_kept(_sat_results(name)[3])


def _frozen_statuses(circuit, faults) -> list[str]:
    prover = sat_reference.RedundancyProver(PodemEngine(circuit))
    return [prover.prove(fault).status for fault in faults]


@pytest.mark.parametrize("name", pins.PODEM_CIRCUITS)
def test_statuses_and_settled_faults_agree_with_the_frozen_miter(name):
    circuit, faults, results, _prover = _sat_results(name)
    frozen = _frozen_statuses(circuit, faults)
    assert [result.status for result in results] == frozen
    prover = RedundancyProver(PodemEngine(circuit))
    settled = [k for k, fault in enumerate(faults) if prover.settles(fault)]
    assert all(frozen[k] == REDUNDANT for k in settled)
    if name != "s27":
        assert settled


def _solver_state(prover: RedundancyProver) -> tuple:
    """Everything of the solver a fast-path check must leave as it
    was: values (all level 0 between faults), trail, saved phases,
    activities and the decision heap."""
    return (list(prover.val), list(prover.trail), list(prover.trail_lim),
            prover.qhead, bytes(prover.phase), list(prover.activity),
            list(prover.heap))


@pytest.mark.parametrize("name", pins.PODEM_CIRCUITS)
def test_settles_leaves_the_solver_state_unchanged(name):
    """On a prover that has searched the whole universe (so saved
    phases and activities are set), the implication stage's level-1
    assumptions leave nothing behind."""
    _circuit, faults, _results, prover = _sat_results(name)
    before = _solver_state(prover)
    for fault in faults:
        prover.settles(fault)
        assert _solver_state(prover) == before, str(fault)


def test_settles_proves_most_untestable_table1_faults():
    """On the six cold Table-I rows the fast path alone proves at least
    600 of the 672 untestable faults."""
    settled = untestable = 0
    for name in pins.TESTSET_CIRCUITS:
        circuit, faults, results, _prover = _sat_results(name)
        prover = RedundancyProver(PodemEngine(circuit))
        settled += sum(prover.settles(fault) for fault in faults)
        untestable += sum(result.status == REDUNDANT for result in results)
    assert untestable == 672
    assert settled >= 600


def _exhaustive_word(j: int, n: int) -> int:
    """Packed word of input ``j`` over all ``n`` patterns: pattern ``k``
    sets input ``j`` to bit ``j`` of ``k``."""
    half = 1 << j
    block = ((1 << half) - 1) << half
    return block * ((1 << n) - 1) // ((1 << 2 * half) - 1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       n_inputs=st.integers(2, 6),
       n_dffs=st.integers(1, 6),
       n_gates=st.integers(14, 40))
def test_generated_netlists_match_exhaustive_simulation(seed, n_inputs,
                                                        n_dffs, n_gates):
    stats = Iscas89Stats("hyp", n_inputs, 2, n_dffs, n_gates)
    circuit = sprinkle_gates(generate_from_stats(stats, seed), seed)
    lines = comb_input_lines(circuit)
    n = 1 << len(lines)
    words = {line: _exhaustive_word(j, n) for j, line in enumerate(lines)}
    faults = all_faults(circuit)
    detected = fault_simulate(circuit, faults, words, n,
                              drop=False).detected
    prover = RedundancyProver(PodemEngine(circuit))
    for fault in faults:
        settled = prover.settles(fault)
        result = prover.prove(fault)
        word = detected.get(fault, 0)
        assert not (settled and word), str(fault)
        assert result.status == (TESTABLE if word else REDUNDANT), str(fault)
        for fill in (0, 1):
            k = sum(result.assignment.get(line, fill) << j
                    for j, line in enumerate(lines))
            assert not word or word >> k & 1, str(fault)
    _assert_only_good_machine_clauses_kept(prover)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       n_inputs=st.integers(2, 6),
       n_dffs=st.integers(1, 6),
       n_gates=st.integers(14, 40))
def test_generated_netlists_agree_with_the_frozen_miter(seed, n_inputs,
                                                        n_dffs, n_gates):
    stats = Iscas89Stats("hyp", n_inputs, 2, n_dffs, n_gates)
    circuit = sprinkle_gates(generate_from_stats(stats, seed), seed)
    faults = all_faults(circuit)
    frozen = _frozen_statuses(circuit, faults)
    prover = RedundancyProver(PodemEngine(circuit))
    for fault, status in zip(faults, frozen):
        assert not prover.settles(fault) or status == REDUNDANT, str(fault)
    assert [prover.prove(fault).status for fault in faults] == frozen


def _level0_constants(circuit) -> tuple[dict[str, int], RedundancyProver]:
    """Every line with a level-0 good value in a fresh prover, and the
    prover."""
    prover = RedundancyProver(PodemEngine(circuit))
    return {name: int(prover.val[2 * li] > 0)
            for li, name in enumerate(prover.names)
            if prover.val[2 * li]}, prover


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       n_inputs=st.integers(1, 4),
       n_dffs=st.integers(1, 2),
       n_gates=st.integers(14, 40))
def test_level0_constants_are_exactly_the_circuit_constants(
        seed, n_inputs, n_dffs, n_gates):
    """Sound (every level-0 good value is a constant of the circuit) and
    complete (random simulation finds every constant as a candidate and
    no proof runs out of conflicts here)."""
    stats = Iscas89Stats("hyp", n_inputs, 2, n_dffs, n_gates)
    circuit = sprinkle_gates(generate_from_stats(stats, seed), seed)
    lines = comb_input_lines(circuit)
    assert len(lines) <= 6
    n = 1 << len(lines)
    full = (1 << n) - 1
    words = simulate_packed(circuit, {line: _exhaustive_word(j, n)
                                      for j, line in enumerate(lines)}, n)
    constants, prover = _level0_constants(circuit)
    assert constants == {line: int(word == full)
                         for line, word in words.items()
                         if word in (0, full)}
    assert all(constants[prover.names[li]] == value
               for li, value in prover.constants.items())


def test_constant_sweep_covers_proofs_ties_and_mux_selects():
    """The netlists of the sweep above commit proven constants, tie
    lines and constant MUX2 selects."""
    proven = ties = selects = 0
    for seed in range(10):
        stats = Iscas89Stats("hyp", 3, 2, 3, 24)
        circuit = sprinkle_gates(generate_from_stats(stats, seed), seed)
        constants, prover = _level0_constants(circuit)
        proven += len(prover.constants)
        gates = circuit.gates
        ties += sum(gates[line].gtype in (GateType.CONST0, GateType.CONST1)
                    for line in constants if line in gates)
        selects += sum(gate.inputs[0] in constants
                       for gate in gates.values()
                       if gate.gtype is GateType.MUX2)
    assert proven and ties >= 20 and selects


def _blocked_fanout_circuit() -> Circuit:
    """Line ``x`` fans out to ``g1``, blocked by the proven constant
    ``t = c AND NOT c``, and to ``g2``, open when ``c`` is 0; line
    ``y`` feeds ``g1`` only."""
    circuit = Circuit("blocked")
    for line in ("a", "b", "c"):
        circuit.add_input(line)
    circuit.add_gate("x", GateType.NAND, ("a", "b"))
    circuit.add_gate("nc", GateType.NOT, ("c",))
    circuit.add_gate("t", GateType.AND, ("c", "nc"))
    circuit.add_gate("y", GateType.NOT, ("b",))
    circuit.add_gate("g1", GateType.AND, ("x", "t", "y"))
    circuit.add_gate("g2", GateType.OR, ("x", "c"))
    circuit.add_output("g1")
    circuit.add_output("g2")
    return circuit


def test_blocked_fanout_keeps_its_d_chain_clause():
    """The miter keeps a blocked fanout of a cone line in the cone: if
    the encoder dropped ``g1``, ``d[g1]`` would be free to satisfy the
    D-chain of ``x`` and a model need not propagate through ``g2``."""
    circuit = _blocked_fanout_circuit()
    prover = RedundancyProver(PodemEngine(circuit))
    assert prover.constants == {prover.index["t"]: 0}
    lines = comb_input_lines(circuit)
    for stuck in (0, 1):
        fault = Fault("x", stuck)
        assert not prover.settles(fault)
        result = prover.prove(fault)
        assert result.status == TESTABLE
        for fill in (0, 1):
            vector = {line: result.assignment.get(line, fill)
                      for line in lines}
            words, n = pack_input_vectors(circuit, [vector])
            detected = fault_simulate(circuit, [fault], words, n,
                                      drop=False).detected
            assert detected.get(fault, 0) == 1, (str(fault), vector)
    # faults whose only path is the blocked one are settled
    assert prover.settles(Fault("y", 0)) and prover.settles(Fault("y", 1))
    # a stuck-at on the constant's own value is never activated
    assert prover.settles(Fault("t", 0))
    assert not prover.settles(Fault("t", 1))
    _assert_only_good_machine_clauses_kept(prover)


def _implied_redundancy_circuit() -> Circuit:
    """``z = (c AND d) OR BUF(d)`` is ``d``, and ``y = (a AND b) OR a``
    is ``a``: no line is constant, so no level-0 value blocks a path
    here."""
    circuit = Circuit("implied")
    for line in ("a", "b", "c", "d"):
        circuit.add_input(line)
    circuit.add_gate("g", GateType.AND, ("c", "d"))
    circuit.add_gate("h", GateType.BUFF, ("d",))
    circuit.add_gate("z", GateType.OR, ("g", "h"))
    circuit.add_gate("x", GateType.AND, ("a", "b"))
    circuit.add_gate("y", GateType.OR, ("x", "a"))
    circuit.add_output("z")
    circuit.add_output("y")
    return circuit


def test_implication_stage_settles_redundancies_without_constants():
    """``x`` stuck-at-0 needs ``x`` = 1, which implies ``a`` = 1 and
    blocks the OR.  Either stuck-at on ``c`` needs a difference through
    ``g`` and ``z``, its only path: the AND wants ``d`` = 1 and the OR
    wants ``h`` = 0, which conflict."""
    circuit = _implied_redundancy_circuit()
    prover = RedundancyProver(PodemEngine(circuit))
    assert not any(prover.val[2 * li] for li in range(prover.n))
    for fault in (Fault("x", 0), Fault("c", 0), Fault("c", 1)):
        assert prover.settles(fault), str(fault)
        assert prover.prove(fault).status == REDUNDANT
    for fault in (Fault("x", 1), Fault("d", 0), Fault("d", 1)):
        assert not prover.settles(fault), str(fault)
        assert prover.prove(fault).status == TESTABLE
    _assert_only_good_machine_clauses_kept(prover)


def test_constant_mux_select_passes_only_its_data_line():
    """``s = c AND NOT c`` is a proven constant 0, so ``m = MUX2(s, a,
    b)`` is ``a``: no stuck-at on ``b`` is observable, though ``a`` and
    so ``m`` have no good value at level 0."""
    circuit = Circuit("mux")
    for line in ("a", "b", "c"):
        circuit.add_input(line)
    circuit.add_gate("nc", GateType.NOT, ("c",))
    circuit.add_gate("s", GateType.AND, ("c", "nc"))
    circuit.add_gate("m", GateType.MUX2, ("s", "a", "b"))
    circuit.add_output("m")
    prover = RedundancyProver(PodemEngine(circuit))
    assert prover.constants == {prover.index["s"]: 0}
    for stuck in (0, 1):
        assert prover.settles(Fault("b", stuck))
        assert not prover.settles(Fault("a", stuck))
        assert prover.prove(Fault("a", stuck)).status == TESTABLE
    _assert_only_good_machine_clauses_kept(prover)


def test_generated_netlists_cover_every_gate_kind():
    seen: set[GateType] = set()
    for seed in range(10):
        stats = Iscas89Stats("hyp", 4, 2, 4, 24)
        circuit = sprinkle_gates(generate_from_stats(stats, seed), seed)
        assert len(comb_input_lines(circuit)) <= 12
        seen |= {gate.gtype for gate in circuit.gates.values()}
    assert {GateType.XOR, GateType.XNOR, GateType.MUX2, GateType.CONST0,
            GateType.CONST1, GateType.NAND, GateType.NOR} <= seen


class TestProverInterface:
    def test_models_leave_unsupported_inputs_open(self, s27_mapped):
        prover = RedundancyProver(PodemEngine(s27_mapped))
        sizes = {len(prover.prove(fault).assignment)
                 for fault in pins.universe(s27_mapped)}
        assert min(sizes) < len(comb_input_lines(s27_mapped))

    def test_unobservable_line_is_redundant(self, s27_mapped):
        circuit = s27_mapped.copy()
        circuit.add_gate("dangling", GateType.NOT,
                         (comb_input_lines(circuit)[0],))
        prover = RedundancyProver(PodemEngine(circuit))
        for stuck in (0, 1):
            result = prover.prove(Fault("dangling", stuck))
            assert result == SatResult(REDUNDANT, {}, 0)

    def test_unknown_line_rejected(self, s27_mapped):
        prover = RedundancyProver(PodemEngine(s27_mapped))
        with pytest.raises(AtpgError, match="not in circuit"):
            prover.prove(Fault("nope", 0))

    def test_stale_prover_rejected(self, s27_mapped):
        circuit = s27_mapped.copy()
        prover = RedundancyProver(PodemEngine(circuit))
        circuit.add_gate("extra", GateType.NOT,
                         (comb_input_lines(circuit)[0],))
        with pytest.raises(AtpgError, match="stale"):
            prover.prove(pins.universe(circuit)[0])


class TestScreenInTheFlow:
    """``generate_tests`` settles structurally redundant faults before
    PODEM and asks SAT only about PODEM screen aborts.  A "testable"
    answer's model is the fault's test; only an "unknown" answer falls
    back to the full PODEM run."""

    @staticmethod
    def _podem_only(monkeypatch, design, config):
        """The test set of plain PODEM at ``max_backtracks`` for every
        fault: no structural fast path, no screen, no prover."""
        def podem(prover, fault, max_backtracks):
            return generate_module.generate_test(
                prover.circuit, fault, max_backtracks,
                engine=prover.engine), "podem"

        with monkeypatch.context() as patch:
            patch.setattr(generate_module, "_podem_verdict", podem)
            return generate_tests(design, config)

    @pytest.mark.parametrize("status", [TESTABLE, UNKNOWN])
    def test_non_redundant_answers_give_the_podem_only_test_set(
            self, monkeypatch, status):
        """A prover that proves nothing redundant gives plain PODEM's
        test set.  "unknown" re-runs PODEM at the full budget; a
        "testable" model (here PODEM's own full-budget assignment, or
        "unknown" where that run aborts) enters the batch through the
        same X-fill as a PODEM assignment."""
        design = ScanDesign.full_scan(pins.mapped_circuit("s344"))
        config = AtpgConfig(seed=pins.SEED)
        with_sat = generate_tests(design, config)
        podem_only = self._podem_only(monkeypatch, design, config)
        answers: list[str] = []

        def prove(self, fault):
            answer = SatResult(UNKNOWN, {}, 0)
            if status == TESTABLE:
                full = generate_module.generate_test(
                    self.circuit, fault, config.max_backtracks,
                    engine=self.engine)
                if full.detected:
                    answer = SatResult(TESTABLE, full.assignment, 0)
            answers.append(answer.status)
            return answer

        monkeypatch.setattr(generate_module.RedundancyProver, "prove",
                            prove)
        monkeypatch.setattr(
            generate_module.RedundancyProver, "settles",
            lambda self, fault: False)
        answered = generate_tests(design, config)
        assert status in answers
        assert answered.vectors == podem_only.vectors
        assert (answered.n_detected, answered.n_untestable,
                answered.n_aborted) == (podem_only.n_detected,
                                        podem_only.n_untestable,
                                        podem_only.n_aborted)
        # PODEM alone proves 17 faults untestable and aborts on others;
        # the prover settles them all
        assert podem_only.n_untestable == 17
        assert podem_only.n_aborted > 0
        assert with_sat.n_untestable == 66
        assert with_sat.n_aborted == 0
        assert with_sat.n_detected > podem_only.n_detected
        for result in (with_sat, podem_only):
            assert (result.n_detected + result.n_untestable
                    + result.n_aborted) == result.n_faults

    def test_only_screen_aborts_reach_the_prover(self, monkeypatch):
        design = ScanDesign.full_scan(pins.mapped_circuit("s382"))
        asked: list[Fault] = []
        prove = RedundancyProver.prove

        def spy(self, fault):
            asked.append(fault)
            return prove(self, fault)

        monkeypatch.setattr(RedundancyProver, "prove", spy)
        generate_tests(design, AtpgConfig(seed=pins.SEED))
        engine = PodemEngine(design.circuit)
        screens = [generate_module.generate_test(
            design.circuit, fault, generate_module.SCREEN_BACKTRACKS,
            engine=engine).status for fault in asked]
        assert asked and set(screens) == {"aborted"}

    def test_settled_faults_reach_neither_podem_nor_the_prover(
            self, monkeypatch):
        design = ScanDesign.full_scan(pins.mapped_circuit("s444"))
        settled: list[Fault] = []
        searched: list[Fault] = []
        settles = RedundancyProver.settles
        prove = RedundancyProver.prove
        podem = generate_module.generate_test

        def spy_settles(self, fault):
            verdict = settles(self, fault)
            if verdict:
                settled.append(fault)
            return verdict

        def spy_prove(self, fault):
            searched.append(fault)
            return prove(self, fault)

        def spy_podem(circuit, fault, *args, **kwargs):
            searched.append(fault)
            return podem(circuit, fault, *args, **kwargs)

        monkeypatch.setattr(RedundancyProver, "settles", spy_settles)
        monkeypatch.setattr(RedundancyProver, "prove", spy_prove)
        monkeypatch.setattr(generate_module, "generate_test", spy_podem)
        result = generate_tests(design, AtpgConfig(seed=pins.SEED))
        assert settled and searched
        assert not set(settled) & set(searched)
        assert len(settled) <= result.n_untestable

    def test_verdict_paths_count_every_podem_target(self, monkeypatch):
        design = ScanDesign.full_scan(pins.mapped_circuit("s344"))
        paths = ("structural", "screen", "sat", "podem")
        decided: list[str] = []
        verdict = generate_module._podem_verdict

        def spy(prover, fault, max_backtracks):
            outcome, path = verdict(prover, fault, max_backtracks)
            decided.append(path)
            return outcome, path

        def counted() -> dict[str, float]:
            """Counter increments of one ``generate_tests`` run."""
            def counts() -> dict[str, float]:
                snapshot = get_registry().snapshot()
                return {path: snapshot.get(
                    f'repro_atpg_verdicts_total{{path="{path}"}}', 0)
                    for path in paths}

            decided.clear()
            before = counts()
            generate_tests(design, AtpgConfig(seed=pins.SEED))
            after = counts()
            delta = {path: after[path] - before[path] for path in paths}
            assert delta == {path: decided.count(path) for path in paths}
            assert sum(delta.values()) == len(decided) > 0
            return delta

        monkeypatch.setattr(generate_module, "_podem_verdict", spy)
        delta = counted()
        # the prover decides every screen abort: no full PODEM run
        assert delta["podem"] == 0
        assert all(delta[path] for path in ("structural", "screen", "sat"))

        # only an "unknown" proof leads to the full PODEM run
        monkeypatch.setattr(RedundancyProver, "prove",
                            lambda self, fault: SatResult(UNKNOWN, {}, 0))
        gave_up = counted()
        assert gave_up["sat"] == 0
        assert gave_up["podem"] > 0
        assert gave_up["structural"] == delta["structural"] > 0
