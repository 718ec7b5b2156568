"""Differential tests: row-space fault replay vs the two frozen replays.

The scalar fault replay of :mod:`repro.atpg.faultsim` runs on integer
rows of the circuit's row table and only evaluates sinks of rows whose
faulty word differs from the good word.  It must give exactly the
detection words and ``remaining`` order of the name-keyed,
level-bucketed event-driven replay frozen in
``faultsim_event_reference`` and of the original cone-ordered replay
kept in ``faultsim_reference``, which re-evaluates every gate of every
fault's fanout cone.  Its per-circuit tables must follow
``Circuit.version``.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import faultsim_event_reference as event_reference
import faultsim_reference as reference
from gate_mix import sprinkle_gates
from generate_podem_pins import PODEM_CIRCUITS, mapped_circuit, universe
from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import Fault, all_faults, observable_lines
from repro.atpg.faultsim import detect_word, scalar_replay
from repro.benchgen import generate_circuit
from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.netlist.circuit import Circuit
from repro.netlist.gates import (
    COMBINATIONAL_TYPES,
    SEQUENTIAL_TYPES,
    GateType,
)
from repro.simulation import schedule
from repro.simulation.bitsim import random_input_words, simulate_packed
from repro.simulation.values import mask
from repro.techmap.mapper import technology_map
from repro.utils.rng import make_rng


def _assert_matches(circuit: Circuit, faults: list[Fault], n: int,
                    seed: int = 1) -> dict[str, int]:
    words = random_input_words(circuit, n, make_rng(seed))
    good = simulate_packed(circuit, words, n)
    got = scalar_replay(circuit, faults, good, n)
    for oracle in (event_reference, reference):
        want = oracle.scalar_replay(circuit, faults, good, n)
        assert got.detected == want.detected, oracle.__name__
        assert got.remaining == want.remaining, oracle.__name__
    return good


def _categories(circuit: Circuit, faults: list[Fault],
                good: dict[str, int], n: int) -> dict[str, list[Fault]]:
    """The fault kinds whose replay has an edge case of its own."""
    obs = set(observable_lines(circuit))
    q_lines = set(circuit.dff_outputs)

    def feeds_only_d_pins(line: str) -> bool:
        sinks = circuit.fanout(line)
        return bool(sinks) and all(
            circuit.gates[sink].gtype in SEQUENTIAL_TYPES
            for sink, _pin in sinks)

    return {
        "pi": [f for f in faults if circuit.is_input(f.line)],
        "dff_q": [f for f in faults if f.line in q_lines],
        "observable": [f for f in faults if f.line in obs],
        "only_d_pins": [f for f in faults if feeds_only_d_pins(f.line)],
        "stuck_is_good": [
            f for f in faults
            if good[f.line] == (mask(n) if f.stuck_at else 0)],
    }


def every_kind() -> Circuit:
    """A scan circuit with one line of every fault-site kind.

    ``d1`` feeds only a D pin, ``y`` is a PO that also feeds a D pin,
    ``k`` is a constant (its stuck-at-0 equals the good value on every
    pattern) and XOR/MUX2 gates reconverge on ``z``.
    """
    c = Circuit("every_kind")
    for pi in ("a", "b", "c"):
        c.add_input(pi)
    c.add_gate("q1", GateType.DFF, ("d1",))
    c.add_gate("q2", GateType.DFF, ("y",))
    c.add_gate("d1", GateType.AND, ("a", "q1"))
    c.add_gate("m", GateType.XOR, ("b", "q2"))
    c.add_gate("y", GateType.NAND, ("m", "c"))
    c.add_gate("k", GateType.CONST0, ())
    c.add_gate("s", GateType.MUX2, ("a", "m", "k"))
    c.add_gate("z", GateType.XNOR, ("s", "m", "q1"))
    c.add_output("y")
    c.add_output("z")
    c.validate()
    return c


class TestAgainstReference:
    def test_every_fault_kind(self):
        circuit = every_kind()
        faults = all_faults(circuit)
        for n in (1, 3, 8):
            good = _assert_matches(circuit, faults, n)
            kinds = _categories(circuit, faults, good, n)
            assert all(kinds.values()), \
                [kind for kind, hit in kinds.items() if not hit]

    @pytest.mark.parametrize("n", [1, 5, 64, 130])
    def test_s27_every_fault(self, s27, n):
        good = _assert_matches(s27, all_faults(s27), n)
        kinds = _categories(s27, all_faults(s27), good, n)
        assert kinds["pi"] and kinds["dff_q"] and kinds["observable"]

    @pytest.mark.parametrize("name", ["s386", "s1423"])
    def test_mapped_iscas_collapsed_universe(self, name):
        circuit = technology_map(generate_circuit(name, 1))
        faults = collapse_faults(circuit, all_faults(circuit))
        _assert_matches(circuit, faults, 64)

    @pytest.mark.parametrize("name", PODEM_CIRCUITS)
    def test_table1_cold_universes(self, name):
        """s27 and the six cold Table-I rows, as the flow grades them."""
        circuit = mapped_circuit(name)
        _assert_matches(circuit, universe(circuit), 130)

    def test_detect_word_per_fault(self, s27_mapped):
        words = random_input_words(s27_mapped, 16, make_rng(3))
        good = simulate_packed(s27_mapped, words, 16)
        for fault in all_faults(s27_mapped):
            word = detect_word(s27_mapped, fault, good, 16)
            assert word == event_reference.detect_word(
                s27_mapped, fault, good, 16), fault
            assert word == reference.detect_word(
                s27_mapped, fault, good, 16), fault

    def test_detect_word_custom_observation_set(self, s27_mapped):
        words = random_input_words(s27_mapped, 16, make_rng(4))
        good = simulate_packed(s27_mapped, words, 16)
        obs = set(s27_mapped.outputs)
        for fault in all_faults(s27_mapped):
            assert detect_word(s27_mapped, fault, good, 16, obs) == \
                event_reference.detect_word(s27_mapped, fault, good, 16,
                                            obs), fault


class TestReplayTables:
    """The per-circuit row tables are derived data of one version."""

    def test_mutation_between_replays(self):
        circuit = every_kind()
        faults = all_faults(circuit)
        before = scalar_replay(
            circuit, faults,
            simulate_packed(circuit, random_input_words(
                circuit, 8, make_rng(1)), 8), 8)
        # New type and new fan-in: ops, fanin and sinks all move.
        circuit.replace_gate("z", GateType.NOR, ("s", "a"))
        circuit.replace_gate("m", GateType.XNOR, ("b", "q2"))
        good = _assert_matches(circuit, faults, 8)
        after = scalar_replay(circuit, faults, good, 8)
        assert after.detected != before.detected

    def test_built_once_per_version(self, monkeypatch):
        builds = []
        build = schedule.build_row_table

        def counting(circuit):
            builds.append(circuit.version)
            return build(circuit)

        monkeypatch.setattr(schedule, "build_row_table", counting)
        circuit = every_kind()
        faults = all_faults(circuit)
        words = random_input_words(circuit, 8, make_rng(2))
        good = simulate_packed(circuit, words, 8)
        scalar_replay(circuit, faults, good, 8)
        scalar_replay(circuit, faults, good, 8)
        detect_word(circuit, faults[0], good, 8)
        assert builds == [circuit.version]

        circuit.replace_gate("y", GateType.NOR, ("m", "c"))
        good = simulate_packed(circuit, words, 8)
        scalar_replay(circuit, faults, good, 8)
        detect_word(circuit, faults[0], good, 8)
        assert len(builds) == 2 and builds[-1] == circuit.version

    def test_warm_replay_skips_name_lookups(self, monkeypatch):
        """Once the tables exist, events are pure row-space work."""
        from repro.simulation import bitsim

        circuit = every_kind()
        faults = all_faults(circuit)
        good = _assert_matches(circuit, faults, 8)
        want = scalar_replay(circuit, faults, good, 8)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("name-space lookup during replay")

        for owner, name in ((Circuit, "fanout"), (Circuit, "level_of"),
                            (bitsim, "eval_gate_packed")):
            monkeypatch.setattr(owner, name, forbidden)
        assert scalar_replay(circuit, faults, good, 8) == want

    def test_tables_do_not_keep_the_circuit_alive(self):
        circuit = every_kind()
        words = random_input_words(circuit, 4, make_rng(3))
        scalar_replay(circuit, all_faults(circuit),
                      simulate_packed(circuit, words, 4), 4)
        ref = weakref.ref(circuit)
        del circuit
        gc.collect()
        assert ref() is None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       n_inputs=st.integers(2, 5),
       n_dffs=st.integers(1, 3),
       n_gates=st.integers(6, 28),
       n=st.integers(1, 130))
def test_generated_netlists_match_reference(seed, n_inputs, n_dffs,
                                            n_gates, n):
    stats = Iscas89Stats("hyp", n_inputs, 2, n_dffs, n_gates)
    circuit = sprinkle_gates(generate_from_stats(stats, seed), seed)
    _assert_matches(circuit, all_faults(circuit), n, seed)


def test_generated_netlists_hit_every_fault_kind():
    hit: set[str] = set()
    gate_kinds: set[GateType] = set()
    for seed in range(10):
        stats = Iscas89Stats("hyp", 4, 2, 2, 24)
        circuit = sprinkle_gates(generate_from_stats(stats, seed), seed)
        faults = all_faults(circuit)
        good = _assert_matches(circuit, faults, 4, seed)
        hit |= {kind for kind, found in
                _categories(circuit, faults, good, 4).items() if found}
        gate_kinds |= {gate.gtype for gate in circuit.gates.values()}
    assert hit == {"pi", "dff_q", "observable", "only_d_pins",
                   "stuck_is_good"}
    assert gate_kinds >= COMBINATIONAL_TYPES
