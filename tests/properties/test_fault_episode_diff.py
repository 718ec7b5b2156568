"""Differential properties of the fault x pattern batched replay.

``FaultSimSession.simulate`` and ``fault_simulate`` must be
observationally identical to the
frozen cone-ordered replay (``tests/atpg/faultsim_reference.py``) —
detection words bit for bit, ``remaining`` in exact input order — in
both drop modes and on mapped and unmapped circuits.  The generated
test sets must equal those of the per-batch ATPG oracle
(``tests/atpg/compaction_reference.py``) too.
"""

from atpg import compaction_reference, faultsim_reference
from hypothesis import given, settings, strategies as st
from simulation.bigint_reference import simulate_packed_bigint

from repro.atpg.faults import all_faults
from repro.atpg.faultsim import fault_simulate
from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.netlist.circuit import Circuit
from repro.simulation.bitsim import random_input_words
from repro.simulation.fault_episode import FaultSimSession
from repro.techmap.mapper import technology_map
from repro.utils.rng import make_rng


def _random_circuit(seed: int, n_gates: int = 40, mapped: bool = False
                    ) -> Circuit:
    circuit = generate_from_stats(
        Iscas89Stats("fedge", 5, 3, 4, n_gates), seed)
    return technology_map(circuit) if mapped else circuit


def _oracle(circuit, faults, words, n):
    """The frozen cone-ordered replay over the frozen good machine."""
    good = simulate_packed_bigint(circuit, words, n)
    return faultsim_reference.scalar_replay(circuit, faults, good, n)


def _assert_same(got, reference, context) -> None:
    assert got.detected == reference.detected, context
    assert list(got.detected) == list(reference.detected), context
    assert got.remaining == reference.remaining, context


class TestPlanEqualsScalarReference:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 200), st.booleans(),
           st.booleans())
    def test_every_backend_both_drop_modes(self, seed, n_patterns,
                                           mapped, drop):
        circuit = _random_circuit(seed, mapped=mapped)
        faults = all_faults(circuit)
        words = random_input_words(circuit, n_patterns, make_rng(seed))
        reference = _oracle(circuit, faults, words, n_patterns)
        got = FaultSimSession(circuit).simulate(faults, words, n_patterns,
                                                drop=drop)
        _assert_same(got, reference, drop)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 160), st.booleans(),
           st.booleans())
    def test_session_matches_per_batch_path(self, seed, n_patterns,
                                            mapped, drop):
        """A session and the per-batch path (``fault_simulate``) both
        equal the frozen replay."""
        circuit = _random_circuit(seed, mapped=mapped, n_gates=30)
        faults = all_faults(circuit)
        words = random_input_words(circuit, n_patterns, make_rng(seed))
        reference = _oracle(circuit, faults, words, n_patterns)
        session = FaultSimSession(circuit)
        got = session.simulate(faults, words, n_patterns, drop=drop)
        per_batch = fault_simulate(circuit, faults, words, n_patterns,
                                   drop=drop)
        _assert_same(got, reference, drop)
        _assert_same(per_batch, reference, ("per-batch", drop))


class TestGeneratedTestSetsIdentical:
    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_plan_toggle_never_changes_the_test_set(self, seed, mapped):
        from repro.atpg.generate import AtpgConfig, generate_tests
        from repro.scan.testview import ScanDesign

        circuit = _random_circuit(seed, mapped=mapped, n_gates=25)
        design = ScanDesign.full_scan(circuit)
        config = AtpgConfig(seed=seed, max_random_batches=4)
        legacy = compaction_reference.generate_tests(design, config)
        planned = generate_tests(design, config)
        assert planned.vectors == legacy.vectors
        assert planned.n_detected == legacy.n_detected
        assert planned.n_faults == legacy.n_faults
        assert planned.n_untestable == legacy.n_untestable
        assert planned.n_aborted == legacy.n_aborted
