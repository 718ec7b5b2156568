"""Reference compaction and accounting: the oracle for ``generate_tests``.

:func:`repro.atpg.generate.generate_tests` runs every fault simulation
through a planned :class:`~repro.simulation.fault_episode.FaultSimSession`,
compacts with a vectorized reverse greedy pass, and reads the final
coverage off the compaction matrix.  This module keeps the original
path verbatim as a test-side oracle:

* :class:`BatchSession` sends every call to the per-batch reference,
  :func:`~repro.atpg.faultsim.fault_simulate`;
* :func:`greedy_keep_bigint` is the reverse greedy pass as big-int
  column scans;
* :func:`generate_tests` shares the random and deterministic phases
  with the product, then compacts with :func:`greedy_keep_bigint` over
  a matrix of the whole universe (proven untestable faults included)
  and counts coverage with one more drop-mode fault simulation of the
  kept set.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import Fault, all_faults
from repro.atpg.faultsim import (
    FaultSimResult,
    check_fault_lines,
    fault_simulate,
)
from repro.atpg.generate import (
    AtpgConfig,
    TestSet,
    _generate_vectors,
    _vector_to_assignment,
)
from repro.netlist.circuit import Circuit
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.bitsim import pack_input_vectors

__all__ = ["BatchSession", "greedy_keep_bigint", "generate_tests"]


class BatchSession:
    """A fault-simulation session with no plan and no state cache.

    Same ``simulate`` contract as
    :class:`~repro.simulation.fault_episode.FaultSimSession`; every call
    is one independent ``fault_simulate``.  ``drops`` records the
    ``drop`` flag of each call.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.drops: list[bool] = []

    def simulate(self, faults: Sequence[Fault],
                 input_words: Mapping[str, int], n: int,
                 drop: bool = True) -> FaultSimResult:
        check_fault_lines(self.circuit, faults)
        self.drops.append(drop)
        return fault_simulate(
            self.circuit, faults, input_words, n, drop=drop)


def greedy_keep_bigint(matrix: FaultSimResult,
                       n_vectors: int) -> list[bool]:
    """Reference reverse-greedy keep-set: big-int column scans."""
    still_uncovered = [word for word in matrix.detected.values() if word]
    keep: list[bool] = [False] * n_vectors
    for t in range(n_vectors - 1, -1, -1):
        bit = 1 << t
        hits = [w for w in still_uncovered if w & bit]
        if hits:
            keep[t] = True
            still_uncovered = [w for w in still_uncovered if not (w & bit)]
        if not still_uncovered:
            break
    return keep


def _reverse_compact(design: ScanDesign, universe: list[Fault],
                     vectors: list[TestVector],
                     session: BatchSession) -> list[TestVector]:
    """Reverse-order compaction via one no-drop detection matrix."""
    circuit = design.circuit
    assignments = [_vector_to_assignment(design, v) for v in vectors]
    words, n = pack_input_vectors(circuit, assignments)
    matrix = session.simulate(universe, words, n, drop=False)
    keep = greedy_keep_bigint(matrix, len(vectors))
    return [v for v, k in zip(vectors, keep) if k]


def generate_tests(design: ScanDesign,
                   config: AtpgConfig | None = None,
                   session: BatchSession | None = None) -> TestSet:
    """Reference :func:`repro.atpg.generate.generate_tests`.

    Pass ``session`` to inspect the calls afterwards.
    """
    config = config or AtpgConfig()
    circuit = design.circuit
    universe = collapse_faults(circuit, all_faults(circuit))
    session = session or BatchSession(circuit)
    kept_vectors, untestable, aborted = _generate_vectors(
        design, config, universe, session)

    if config.compaction and kept_vectors:
        kept_vectors = _reverse_compact(design, universe, kept_vectors,
                                        session)

    # Final accounting: one more drop-mode pass over the compacted set.
    detected: set[Fault] = set()
    if kept_vectors:
        assignments = [_vector_to_assignment(design, v)
                       for v in kept_vectors]
        words, n = pack_input_vectors(circuit, assignments)
        detected = set(session.simulate(universe, words, n,
                                        drop=True).detected)

    return TestSet(
        vectors=kept_vectors,
        n_faults=len(universe),
        n_detected=len(detected),
        n_untestable=len(untestable),
        n_aborted=sum(1 for fault in aborted if fault not in detected),
    )
