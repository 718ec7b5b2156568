"""Unit tests for the fused numpy fault-simulation kernel.

Bit-identity on random circuits is pinned by the differential property
suite; here we exercise the kernel's edge geometry directly: plan
caching and invalidation, word-boundary pattern counts, faults on
observable/input/stem lines, mixed gate types (MUX/XOR/CONST cones),
tile-geometry memoization and scratch-buffer reuse across tiles.
"""

import numpy as np
import pytest

from repro.atpg.faults import Fault, all_faults
from repro.atpg.faultsim import fault_simulate
from repro.netlist import builders
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.simulation.backends import get_backend
from repro.simulation.backends.fault_kernel import (
    _MIN_BATCH_FAULTS,
    FaultSimPlan,
    cached_fault_plan,
    fault_simulate_matrix,
    tile_geometry,
)
from repro.simulation.bitsim import (
    pack_input_vectors,
    random_input_words,
)
from repro.simulation.kernels import TileScratch
from repro.techmap.mapper import technology_map
from repro.utils.rng import make_rng


def _assert_identical(circuit, faults, words, n):
    ref = fault_simulate(circuit, faults, words, n, backend="bigint")
    got = fault_simulate(circuit, faults, words, n, backend="numpy")
    assert got.detected == ref.detected
    assert list(got.detected) == list(ref.detected)
    assert got.remaining == ref.remaining
    return ref


class TestPlanCache:
    def test_plan_is_reused(self, s27_mapped):
        plan_a = cached_fault_plan(s27_mapped)
        plan_b = cached_fault_plan(s27_mapped)
        assert plan_a is plan_b

    def test_mutation_invalidates_plan(self, s27_mapped):
        plan_a = cached_fault_plan(s27_mapped)
        line = s27_mapped.topo_order()[0]
        gate = s27_mapped.gates[line]
        s27_mapped.replace_gate(line, gate.gtype, gate.inputs)
        plan_b = cached_fault_plan(s27_mapped)
        assert plan_a is not plan_b
        assert plan_b.version == s27_mapped.version

    def test_cache_does_not_keep_circuits_alive(self):
        """The plan cache is weak-keyed; a plan holding a strong circuit
        ref would defeat eviction and leak every simulated circuit."""
        import gc
        import weakref

        from repro.benchgen.generator import generate_from_stats
        from repro.benchgen.iscas89 import Iscas89Stats
        from repro.simulation.bitsim import random_input_words
        from repro.utils.rng import make_rng

        circuit = generate_from_stats(
            Iscas89Stats("leak", 4, 2, 3, 20), seed=0)
        ref = weakref.ref(circuit)
        words = random_input_words(circuit, 16, make_rng(0))
        fault_simulate(circuit, all_faults(circuit), words, 16,
                       backend="numpy")
        del circuit, words
        gc.collect()
        assert ref() is None

    def test_cone_rows_are_topological(self, s27_mapped):
        plan = FaultSimPlan(s27_mapped)
        for line in list(s27_mapped.lines())[:8]:
            rows = plan.cone_rows(line)
            assert (rows[:-1] < rows[1:]).all() if rows.size > 1 else True
            assert plan.schedule.line_index.get(line) not in rows.tolist()


class TestKernelGeometry:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 200])
    def test_word_boundaries(self, s27_mapped, n):
        faults = all_faults(s27_mapped)
        words = random_input_words(s27_mapped, n, make_rng(n))
        _assert_identical(s27_mapped, faults, words, n)

    def test_mixed_gate_types_in_cone(self):
        circuit = Circuit("mixy")
        a = circuit.add_input("a")
        b = circuit.add_input("b")
        s = circuit.add_input("s")
        circuit.add_gate("x", GateType.XOR, (a, b))
        circuit.add_gate("m", GateType.MUX2, (s, "x", b))
        circuit.add_gate("q", GateType.XNOR, ("m", a))
        circuit.add_gate("y", GateType.NAND, ("q", "m"))
        circuit.add_output("y")
        faults = all_faults(circuit)
        words = random_input_words(circuit, 100, make_rng(7))
        _assert_identical(circuit, faults, words, 100)

    def test_fault_on_observable_line(self, s27_mapped):
        po = s27_mapped.outputs[0]
        faults = [Fault(po, 0), Fault(po, 1)]
        words = random_input_words(s27_mapped, 64, make_rng(2))
        result = _assert_identical(s27_mapped, faults, words, 64)
        assert result.n_detected == 2  # a PO stem is always observable

    def test_fault_on_primary_input(self, s27_mapped):
        pi = s27_mapped.inputs[0]
        faults = [Fault(pi, 0), Fault(pi, 1)]
        words = random_input_words(s27_mapped, 64, make_rng(3))
        _assert_identical(s27_mapped, faults, words, 64)

    def test_duplicate_faults_share_one_evaluation(self, s27_mapped):
        fault = Fault(s27_mapped.inputs[0], 1)
        words = random_input_words(s27_mapped, 32, make_rng(4))
        result = _assert_identical(
            s27_mapped, [fault, fault, fault], words, 32)
        if fault not in result.detected:
            assert result.remaining == [fault, fault, fault]

    def test_stuck_at_equal_to_constant_good_is_undetected(self):
        circuit = Circuit("const")
        a = circuit.add_input("a")
        circuit.add_gate("one", GateType.CONST1, ())
        circuit.add_gate("y", GateType.AND, (a, "one"))
        circuit.add_output("y")
        words, n = pack_input_vectors(circuit, [{"a": 1}, {"a": 0}])
        result = _assert_identical(
            circuit, [Fault("one", 1), Fault("one", 0)], words, n)
        assert Fault("one", 1) not in result.detected
        assert Fault("one", 0) in result.detected

    def test_interacting_fault_pair_in_one_batch(self):
        # g1 feeds g2; g2's stuck line must stay forced in its own lane
        # while g1's fault propagates through it in the other lane.
        circuit = Circuit("chain")
        a = circuit.add_input("a")
        b = circuit.add_input("b")
        circuit.add_gate("g1", GateType.NAND, (a, b))
        circuit.add_gate("g2", GateType.NOT, ("g1",))
        circuit.add_gate("g3", GateType.NOR, ("g2", a))
        circuit.add_output("g3")
        faults = [Fault("g1", 0), Fault("g1", 1),
                  Fault("g2", 0), Fault("g2", 1)]
        vectors = [{"a": x, "b": y} for x in (0, 1) for y in (0, 1)]
        words, n = pack_input_vectors(circuit, vectors)
        _assert_identical(circuit, faults, words, n)


@pytest.fixture
def mapped():
    return technology_map(builders.toy_scan_circuit())


@pytest.fixture
def stimulus(mapped):
    n = 130  # three uint64 words, ragged tail
    return random_input_words(mapped, n, make_rng(9)), n


class TestTileGeometryMemoized:
    def test_memoized_per_plan_and_budget(self, mapped, stimulus):
        words, n = stimulus
        get_backend("numpy").run(mapped, words, n)  # warm schedule
        plan = cached_fault_plan(mapped)
        plan._tile_cache.clear()
        first = tile_geometry(plan, 7)
        assert plan._tile_cache == {(7, None): first}
        assert tile_geometry(plan, 7) == first
        other = tile_geometry(plan, 7, 123)
        assert plan._tile_cache[(7, 123)] == other
        assert len(plan._tile_cache) == 2

    def test_fresh_plan_fresh_cache(self, mapped):
        plan = cached_fault_plan(mapped)
        other = type(plan)(mapped)
        assert other._tile_cache == {}


class TestTileScratchReuse:
    def test_single_buffer_grows_monotonically(self):
        scratch = TileScratch()
        small = scratch.faulty((2, 3, 4))
        assert small.shape == (2, 3, 4)
        flat = scratch._flat
        # A same-or-smaller tile reuses the buffer (a view, no realloc).
        again = scratch.faulty((2, 3, 4))
        assert scratch._flat is flat
        assert again.base is flat
        smaller = scratch.faulty((1, 2, 3))
        assert scratch._flat is flat
        assert smaller.shape == (1, 2, 3)
        # Only a larger tile reallocates.
        scratch.faulty((4, 3, 4))
        assert scratch._flat is not flat

    def test_kernel_allocates_once_across_tiles(self, mapped, stimulus,
                                                monkeypatch):
        """A multi-tile sweep must not allocate one buffer per tile."""
        import repro.simulation.backends.fault_kernel as fk

        allocations = []
        real_empty = np.empty

        class CountingScratch(TileScratch):
            def faulty(self, shape):
                before = self._flat
                out = super().faulty(shape)
                if self._flat is not before:
                    allocations.append(shape)
                return out

        monkeypatch.setattr(fk, "TileScratch", CountingScratch)
        words, n = stimulus
        faults = all_faults(mapped)
        state = get_backend("numpy").run(mapped, words, n)
        plan = cached_fault_plan(mapped)
        budget = 1  # clamps to the minimum batch -> many tiles
        f_tile, _ = tile_geometry(plan, state.matrix.shape[1], budget)
        n_tiles = -(-len(set(faults)) // f_tile)
        fault_simulate_matrix(state, faults, element_budget=budget)
        assert real_empty is np.empty
        assert n_tiles > 1
        assert len(allocations) < n_tiles

    def test_scratch_reuse_bit_identical(self, mapped, stimulus):
        """Pinned: buffer reuse across tiles changes no detection bit."""
        words, n = stimulus
        faults = all_faults(mapped)
        reference = fault_simulate(mapped, faults, words, n,
                                   backend="bigint")
        state = get_backend("numpy").run(mapped, words, n)
        for budget in (1, 1000, None):
            got = fault_simulate_matrix(state, faults,
                                        element_budget=budget)
            assert got.detected == reference.detected, budget
            assert list(got.detected) == list(reference.detected), budget
            assert got.remaining == reference.remaining, budget

    def test_multi_tile_geometry(self, mapped, stimulus):
        """Forced word-axis tiling runs the scratch-buffer reuse path
        and stays bit-identical."""
        words, n = stimulus
        faults = all_faults(mapped)
        reference = fault_simulate(mapped, faults, words, n,
                                   backend="bigint")
        state = get_backend("numpy").run(mapped, words, n)
        plan = cached_fault_plan(mapped)
        for budget in (1, plan.n_rows * _MIN_BATCH_FAULTS * 2):
            assert tile_geometry(plan, state.matrix.shape[1],
                                 budget)[1] < state.matrix.shape[1]
            got = fault_simulate_matrix(state, faults,
                                        element_budget=budget)
            assert got.detected == reference.detected, budget
            assert got.remaining == reference.remaining, budget
