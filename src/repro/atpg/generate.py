"""Full deterministic test-set generation (the ATOM [18] substitute).

Pipeline:

1. **Random phase** — batches of packed random vectors are fault-simulated
   with dropping; each pattern that is the *first* detector of some fault
   is kept (like ATOM's random phase).
2. **Deterministic phase** — one test per remaining fault, in batches:
   don't-cares are random-filled and the whole batch of new vectors is
   fault-simulated at once against the remaining list (collateral
   detections drop out cheaply).  Each fault first meets the SAT
   prover's structural fast path
   (:meth:`~repro.atpg.sat.RedundancyProver.settles`): a stuck-at on a
   proven good-machine constant, a site no observable line can see, or
   a fault whose necessary conditions (the activation value and the
   good values its dominators force) imply a conflict or leave no
   observable line that may differ, is untestable without PODEM or a
   miter; these are most of the untestable faults.  Every other fault
   gets a short PODEM screen of :data:`SCREEN_BACKTRACKS` backtracks;
   PODEM is deterministic, so a verdict reached there is the
   full-budget verdict.
   A screen abort goes to the incremental SAT prover
   (:mod:`repro.atpg.sat`): a redundancy proof makes the fault
   untestable, and a "testable" answer's model is the fault's test
   (Larrabee's miter only has models that detect), X-filled like a
   PODEM assignment.  Only an "unknown" answer (the conflict cap) runs
   PODEM again at ``max_backtracks``, whose outcome stands; so a fault
   can only be aborted when the prover gave up on it too.  Aborted and
   untestable faults are excluded from the batch's targets and neither
   draws from the RNG.  ``repro_atpg_verdicts_total{path=...}`` counts
   which step decided each fault: ``structural``, ``screen``, ``sat``
   (a redundancy proof or a model) or ``podem`` (the full-budget run
   after an "unknown" proof).  Every test must detect the fault it was
   generated for in the batch's fault simulation, else
   :class:`~repro.errors.AtpgError`.
3. **Reverse-order compaction** — one packed no-drop fault simulation of
   the kept set against every fault not proven untestable (a proven
   fault's row is empty) produces a detection matrix; a reverse greedy
   pass keeps a vector only if it detects some fault no later-kept
   vector detects.  The final coverage accounting reads the same matrix.

The output is a :class:`TestSet` of :class:`~repro.scan.TestVector`
objects in application order, plus coverage statistics.  Seeded and fully
deterministic.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import Fault, all_faults
from repro.atpg.faultsim import FaultSimResult
from repro.atpg.podem import PodemEngine, PodemResult, generate_test
from repro.atpg.sat import REDUNDANT, TESTABLE, RedundancyProver
from repro.errors import AtpgError, ConfigError
from repro.obs.metrics import get_registry
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.backends import Backend
from repro.simulation.bitsim import pack_input_vectors, random_input_words
from repro.simulation.eval2 import comb_input_lines
from repro.simulation.fault_episode import FaultSimSession
from repro.simulation.values import bit_at
from repro.utils.rng import derive_seed, make_rng

__all__ = ["TestSet", "AtpgConfig", "generate_tests", "SCREEN_BACKTRACKS"]

#: PODEM backtrack budget before an abort is handed to the SAT prover
SCREEN_BACKTRACKS = 5


def _verdict_counter(path: str):
    return get_registry().counter(
        "repro_atpg_verdicts_total",
        "Deterministic-phase ATPG faults by the step that decided them "
        "(structural/screen/sat/podem).",
        labels={"path": path})


@dataclasses.dataclass(frozen=True)
class AtpgConfig:
    """Knobs of the test generation pipeline."""

    seed: int = 0
    random_batch: int = 64
    max_random_batches: int = 16
    min_batch_yield: int = 1      # stop random phase below this many detects
    max_backtracks: int = 100
    podem_batch: int = 32
    compaction: bool = True

    def __post_init__(self) -> None:
        minimum = {"random_batch": 1, "podem_batch": 1,
                   "max_random_batches": 0, "min_batch_yield": 0,
                   "max_backtracks": 0}
        for name, low in minimum.items():
            value = getattr(self, name)
            if value < low:
                raise ConfigError(
                    f"AtpgConfig.{name} must be >= {low}, got {value!r}")


@dataclasses.dataclass
class TestSet:
    """A generated scan test set with its bookkeeping."""

    #: keep pytest from collecting this dataclass as a test case
    __test__ = False

    vectors: list[TestVector]
    n_faults: int                  # collapsed universe size
    n_detected: int
    #: proven redundant: the SAT prover's structural fast path settled
    #: the fault, PODEM exhausted its search, or the SAT prover found
    #: the fault's miter unsatisfiable
    n_untestable: int
    #: PODEM aborted and the SAT prover answered "unknown" at its
    #: conflict cap, and no vector of the final set detects the fault
    n_aborted: int

    @property
    def fault_coverage(self) -> float:
        """Detected / total (collapsed) faults."""
        if self.n_faults == 0:
            return 1.0
        return self.n_detected / self.n_faults

    @property
    def testable_coverage(self) -> float:
        """Detected / (total - proven untestable).

        Untestable faults carry a proof (a structural one, an exhausted
        PODEM search or a SAT redundancy proof), and a fault the prover
        finds testable gets the prover's model as its test.  Only
        aborted faults, which the prover left "unknown", can still sit
        in the denominator without being proven testable; with none,
        this is 1.0.
        """
        denom = self.n_faults - self.n_untestable
        if denom <= 0:
            return 1.0
        return self.n_detected / denom

    def summary(self) -> str:
        return (f"{len(self.vectors)} vectors, "
                f"{self.n_detected}/{self.n_faults} faults "
                f"({self.fault_coverage:.1%} coverage, "
                f"{self.n_untestable} untestable, "
                f"{self.n_aborted} aborted)")


def _assignment_to_vector(design: ScanDesign,
                          values: dict[str, int]) -> TestVector:
    pi_values = {pi: values[pi] for pi in design.circuit.inputs}
    scan_state = tuple(values[q] for q in design.chain.q_lines)
    return TestVector(pi_values=pi_values, scan_state=scan_state)


def _vector_to_assignment(design: ScanDesign,
                          vector: TestVector) -> dict[str, int]:
    values = dict(vector.pi_values)
    values.update(design.chain.state_as_dict(vector.scan_state))
    return values


def generate_tests(design: ScanDesign,
                   config: AtpgConfig | None = None,
                   backend: str | Backend | None = None,
                   fault_backend: str | Backend | None = None,
                   stream_budget: int | None = None) -> TestSet:
    """Generate a compacted stuck-at test set for a full-scan design.

    ``backend`` selects the packed-simulation engine for every fault
    simulation; ``fault_backend`` overrides it for the fault simulations
    specifically (e.g. the ``sharded`` meta-backend for large collapsed
    universes) and defaults to ``backend``.  Results are bit-identical
    across backends, so the generated test set never depends on either.

    All fault simulations run through one persistent
    :class:`~repro.simulation.fault_episode.FaultSimSession` that
    carries good-machine states across the pipeline's batches.
    ``stream_budget`` bounds the session's planned replays out of core
    (``None`` = session default / ``$REPRO_STREAM_BUDGET``, ``0`` off);
    streaming is bit-identical, so the test set never depends on it.

    A ``sharded`` fault engine dispatches every call that splits on its
    attached pool, else on the process-wide shared worker pool
    (:func:`repro.campaign.pool.ensure_shared_pool`): ATPG makes many
    fault-simulation calls on the same circuit, and the live workers
    keep their interned plan caches across them.
    """
    config = config or AtpgConfig()
    from repro.simulation.backends import resolve_fault_backend
    engine = resolve_fault_backend(
        fault_backend if fault_backend is not None else backend)
    circuit = design.circuit
    universe = collapse_faults(circuit, all_faults(circuit))
    session = FaultSimSession(circuit, engine, stream_budget=stream_budget)
    return _generate_tests(design, config, universe, session)


def _generate_tests(design: ScanDesign, config: AtpgConfig,
                    universe: list[Fault],
                    session: FaultSimSession) -> TestSet:
    """The generation pipeline proper (fault session fully resolved)."""
    vectors, untestable, aborted = _generate_vectors(
        design, config, universe, session)

    # ---- phase 3: compaction and coverage accounting ------------------ #
    # One no-drop detection matrix of the generated set serves both: the
    # reverse greedy pass picks the kept columns, and a fault is detected
    # by the kept set iff its word hits a kept column (per-pattern
    # detection is independent of the other patterns).  Proven
    # untestable faults have empty rows, so they are not simulated.
    detected: set[Fault] = set()
    if vectors:
        assignments = [_vector_to_assignment(design, v) for v in vectors]
        words, n = pack_input_vectors(design.circuit, assignments)
        matrix = session.simulate(
            [fault for fault in universe if fault not in untestable],
            words, n, drop=False)
        keep = _greedy_keep(matrix, n) if config.compaction \
            else [True] * n
        kept_mask = sum(1 << t for t, k in enumerate(keep) if k)
        vectors = [v for v, k in zip(vectors, keep) if k]
        detected = {fault for fault, word in matrix.detected.items()
                    if word & kept_mask}

    # Every universe fault is detected, proven untestable or
    # aborted-and-undetected, exactly once.
    return TestSet(
        vectors=vectors,
        n_faults=len(universe),
        n_detected=len(detected),
        n_untestable=len(untestable),
        n_aborted=sum(1 for fault in aborted if fault not in detected),
    )


def _generate_vectors(design: ScanDesign, config: AtpgConfig,
                      universe: list[Fault], session: FaultSimSession
                      ) -> tuple[list[TestVector], set[Fault], set[Fault]]:
    """Phases 1 and 2: random patterns, then deterministic tests in
    batches.

    Returns ``(vectors in generation order, proven-untestable faults,
    aborted faults)``; ``session`` may be any object with
    :meth:`FaultSimSession.simulate`'s signature.
    """
    circuit = design.circuit
    input_lines = comb_input_lines(circuit)
    remaining: list[Fault] = list(universe)
    kept_vectors: list[TestVector] = []
    untestable: set[Fault] = set()
    aborted: set[Fault] = set()

    # ---- phase 1: random patterns ------------------------------------- #
    rng = make_rng(derive_seed(config.seed, f"atpg:{circuit.name}"))
    for _batch in range(config.max_random_batches):
        if not remaining:
            break
        n = config.random_batch
        words = random_input_words(circuit, n, rng)
        result = session.simulate(remaining, words, n, drop=True)
        if len(result.detected) < config.min_batch_yield:
            break
        first_detectors: set[int] = set()
        for word in result.detected.values():
            first_detectors.add((word & -word).bit_length() - 1)
        for t in sorted(first_detectors):
            values = {line: bit_at(words[line], t) for line in input_lines}
            kept_vectors.append(_assignment_to_vector(design, values))
        remaining = result.remaining

    # ---- phase 2: deterministic tests in batches ----------------------- #
    prover: RedundancyProver | None = None
    while remaining:
        if prover is None:
            prover = RedundancyProver(PodemEngine(circuit))
        batch = remaining[:config.podem_batch]
        new_assignments: list[dict[str, int]] = []
        #: (fault, deciding step) of each new vector, in vector order
        targeted: list[tuple[Fault, str]] = []
        for fault in batch:
            outcome, path = _podem_verdict(prover, fault,
                                           config.max_backtracks)
            _verdict_counter(path).inc()
            if outcome.status == "untestable":
                untestable.add(fault)
            elif outcome.status == "aborted":
                aborted.add(fault)
            else:
                values = dict(outcome.assignment)
                for line in input_lines:
                    if line not in values:
                        values[line] = int(rng.integers(2))
                new_assignments.append(values)
                targeted.append((fault, path))
        handled = set(batch)
        remaining = [f for f in remaining if f not in handled]
        if new_assignments:
            words, n = pack_input_vectors(circuit, new_assignments)
            targets = [f for f in batch + remaining
                       if f not in untestable and f not in aborted]
            result = session.simulate(targets, words, n, drop=True)
            # A test that misses its own fault would leave the fault
            # neither detected, untestable nor aborted.
            for k, (fault, path) in enumerate(targeted):
                if not result.detected.get(fault, 0) >> k & 1:
                    raise AtpgError(
                        f"the {path} test for fault {fault} does not "
                        f"detect it in {circuit.name!r}")
            still = set(result.remaining)
            remaining = [f for f in remaining if f in still]
            kept_vectors.extend(
                _assignment_to_vector(design, values)
                for values in new_assignments)
        # Aborted batch faults are dropped from further generation (a
        # later vector may still detect one collaterally).

    return kept_vectors, untestable, aborted


def _podem_verdict(prover: RedundancyProver, fault: Fault,
                   max_backtracks: int) -> tuple[PodemResult, str]:
    """Decide one fault: a short PODEM screen, then the SAT prover.

    The prover's structural fast path runs first: a fault it settles is
    "untestable" without a PODEM run (path ``structural``).  Then a
    short screen of :data:`SCREEN_BACKTRACKS` backtracks runs; its
    verdict equals the full-budget one whenever it reaches one
    (``screen``).  A screen abort goes to the prover (``sat``): a
    redundancy proof makes the fault "untestable", and a "testable"
    answer makes it "detected" with the model's input assignment as
    the test.  Only an "unknown" answer runs PODEM at
    ``max_backtracks``, whose outcome stands (``podem``).  Returns the
    outcome and that path.
    """
    if prover.settles(fault):
        return PodemResult("untestable", {}, 0), "structural"
    circuit, engine = prover.circuit, prover.engine
    screen = min(SCREEN_BACKTRACKS, max_backtracks)
    outcome = generate_test(circuit, fault, screen, engine=engine)
    if outcome.status != "aborted":
        return outcome, "screen"
    proof = prover.prove(fault)
    if proof.status == REDUNDANT:
        return dataclasses.replace(outcome, status="untestable"), "sat"
    if proof.status == TESTABLE:
        return dataclasses.replace(outcome, status="detected",
                                   assignment=proof.assignment), "sat"
    if screen < max_backtracks:
        outcome = generate_test(circuit, fault, max_backtracks,
                                engine=engine)
    return outcome, "podem"


def _greedy_keep(matrix: FaultSimResult, n_vectors: int) -> list[bool]:
    """Reverse-greedy keep-set over a no-drop detection matrix.

    Vector ``t`` is kept iff it detects a fault that no later-kept
    vector detects.  The detection words become a ``(faults, vectors)``
    bool matrix once; each reverse step is then one column AND / row
    update instead of an O(faults) Python list scan per vector.
    """
    words = [word for word in matrix.detected.values() if word]
    keep = [False] * n_vectors
    if not words:
        return keep
    n_bytes = (n_vectors + 7) // 8
    raw = b"".join(word.to_bytes(n_bytes, "little") for word in words)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(words),
                                                        n_bytes)
    bits = np.unpackbits(packed, axis=1,
                         bitorder="little")[:, :n_vectors].astype(bool)
    uncovered = np.ones(len(words), dtype=bool)
    for t in range(n_vectors - 1, -1, -1):
        column = bits[:, t]
        if (column & uncovered).any():
            keep[t] = True
            uncovered &= ~column
        if not uncovered.any():
            break
    return keep
