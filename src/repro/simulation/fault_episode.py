"""Fault x pattern batched replay: whole-test-set fault detection.

PR 4 turned whole-test-set *power* replay into one matrix
(:mod:`repro.simulation.episode`); this module does the same for fault
detection — the dominant cost of ATPG and of every Table-I run.  The
scan-power literature evaluates fault coverage over the *entire* applied
test set, which is exactly the fault x pattern detection matrix, so
instead of driving many independent
:func:`~repro.atpg.faultsim.fault_simulate` calls (each re-simulating
the good machine, re-chunking cones and re-dispatching shards) the whole
fault universe and the whole pattern set are packed into **one**
:class:`FaultEpisodePlan` and handed to
:meth:`~repro.simulation.backends.base.Backend.fault_simulate_plan`:

* ``bigint`` replays the plan with the scalar row-space reference
  on the plan's memoized good-machine words (the pinned semantics);
* ``numpy`` evaluates the detection matrix with **2-D tiling** — fault-
  axis chunks x pattern-axis word blocks under the fault kernel's
  element budget — reusing the warmed good-machine state and levelized
  schedule across all tiles (:mod:`~repro.simulation.backends.
  fault_kernel`);
* ``sharded`` shards **both axes**: fault-major for drop-mode runs,
  pattern-major (word-aligned cycle windows) for no-drop detection
  matrices, with an integer-exact OR-merge of detection words
  (:mod:`~repro.simulation.backends.sharded`).

A :class:`FaultSimSession` carries the plan machinery and the
good-machine state cache across the many batches of one ATPG run (or
one campaign circuit), so incremental fault dropping never re-simulates
the good machine.

Everything is bit-identical to the per-batch reference
(:meth:`~repro.simulation.backends.base.Backend.fault_simulate_batch`):
detection words, ``remaining`` ordering, coverage statistics and
compacted test sets never depend on the engine, the tile geometry or
the shard count — the differential property tests in
``tests/properties`` pin this.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.obs.trace import span

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.atpg.faults import Fault
    from repro.atpg.faultsim import FaultSimResult
    from repro.simulation.backends import Backend, SimState

__all__ = [
    "FaultEpisodePlan",
    "FaultSimSession",
    "compile_fault_episode_plan",
]


def fault_planning_enabled(flag: bool | None = None) -> bool:
    """Always ``True``: the planned replay is the only product path.

    Kept only because ``perfbench/workloads.py`` (``resolved_runtime``)
    imports it to record the resolved engines; it reads neither the
    environment nor the session.
    """
    return True


class FaultEpisodePlan:
    """A whole fault universe x pattern set as one replay plan.

    Attributes
    ----------
    circuit:
        The circuit under test (combinational test view).
    faults:
        The fault list, in caller order (``remaining`` ordering follows
        it exactly).
    input_words:
        Packed interchange stimulus for every combinational input.
    n:
        Pattern count.

    The plan memoizes the fault-free ("good machine") simulation per
    backend, so every engine — and every tile within one engine —
    reuses one settled state instead of re-simulating per call.  Plans
    are never pickled: sharded dispatch ships raw components (a fault
    slice and the stimulus) to pool workers, which settle their own
    slice's state.
    """

    def __init__(self, circuit: Circuit, faults: "Sequence[Fault]",
                 input_words: Mapping[str, int], n: int,
                 state_cache: "dict[str, SimState] | None" = None):
        if n < 1:
            raise SimulationError("fault episode plan needs >= 1 pattern")
        self.circuit = circuit
        self.faults: "tuple[Fault, ...]" = tuple(faults)
        self.input_words = dict(input_words)
        self.n = n
        self._states: "dict[str, SimState]" = \
            {} if state_cache is None else state_cache
        self._good_words: dict[str, dict[str, int]] = {}

    @property
    def n_faults(self) -> int:
        return len(self.faults)

    @property
    def n_words(self) -> int:
        """``uint64`` words per packed waveform row."""
        return (self.n + 63) // 64

    def state_elements(self) -> int:
        """``uint64`` elements of the good machine's resident state.

        The budget currency of the streaming ``stream_budget``: every
        combinational input plus every gate output plus the padding
        row, times the packed word count.
        """
        from repro.simulation.streaming import state_elements
        return state_elements(len(self.input_words), self.circuit, self.n)

    def good_state(self, backend: "Backend") -> "SimState":
        """The fault-free simulation on ``backend``, memoized by name.

        The state cache may be shared with a :class:`FaultSimSession`
        so identical stimuli reuse one settled state across plans.
        """
        state = self._states.get(backend.name)
        if state is None:
            with span("plan.fault_good_state", backend=backend.name,
                      patterns=self.n):
                state = backend.run(self.circuit, self.input_words, self.n)
            self._states[backend.name] = state
        return state

    def good_words(self, backend: "Backend") -> dict[str, int]:
        """Interchange words of the good machine (memoized per backend)."""
        words = self._good_words.get(backend.name)
        if words is None:
            words = self.good_state(backend).words()
            self._good_words[backend.name] = words
        return words

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<FaultEpisodePlan {self.circuit.name!r} "
                f"faults={self.n_faults} patterns={self.n}>")


def compile_fault_episode_plan(circuit: Circuit,
                               faults: "Sequence[Fault]",
                               input_words: Mapping[str, int], n: int
                               ) -> FaultEpisodePlan:
    """Compile one :class:`FaultEpisodePlan` (standalone convenience).

    Long-running consumers should prefer a :class:`FaultSimSession`,
    which shares good-machine states across plans.
    """
    return FaultEpisodePlan(circuit, faults, input_words, n)


#: Good-machine states kept per session: distinct stimuli worth caching
#: at once (ATPG alternates between at most a few within one phase).
_SESSION_STATE_SLOTS = 4


class FaultSimSession:
    """Persistent fault-simulation context for one circuit.

    Carries the resolved engine and a bounded good-machine state pool
    across *many* fault-simulation calls (ATPG batches, compaction,
    coverage accounting), so incremental fault dropping never
    recomputes shared state.

    Parameters
    ----------
    circuit:
        The circuit every call simulates (the state pool keys on it).
    backend:
        Fault-simulation engine (name, instance or ``None`` — resolved
        through :func:`~repro.simulation.backends.resolve_fault_backend`).
    stream_budget:
        Out-of-core streaming budget override (``uint64`` elements of
        one window's state matrix); ``None`` defers to the session
        default / ``$REPRO_STREAM_BUDGET``, ``0`` forces streaming off.
        Resolved once at construction.
    """

    def __init__(self, circuit: Circuit,
                 backend: "str | Backend | None" = None,
                 stream_budget: int | None = None):
        from repro.simulation.backends import resolve_fault_backend
        from repro.simulation.streaming import resolve_stream_budget
        self.circuit = circuit
        self.engine = resolve_fault_backend(backend)
        self.stream_budget = resolve_stream_budget(stream_budget)
        self._state_pool: \
            "OrderedDict[tuple, dict[str, SimState]]" = OrderedDict()

    def _states_for(self, input_words: Mapping[str, int], n: int
                    ) -> "dict[str, SimState]":
        """The per-stimulus good-machine cache slot (bounded LRU).

        Keyed on the circuit's structure version too, so a mutated
        circuit never reuses a good machine settled on its old netlist.
        """
        key = (self.circuit.version, n, tuple(sorted(input_words.items())))
        states = self._state_pool.get(key)
        if states is None:
            self._state_pool[key] = states = {}
            while len(self._state_pool) > _SESSION_STATE_SLOTS:
                self._state_pool.popitem(last=False)
        else:
            self._state_pool.move_to_end(key)
        return states

    def compile(self, faults: "Sequence[Fault]",
                input_words: Mapping[str, int], n: int
                ) -> FaultEpisodePlan:
        """Compile a plan wired to the session's shared caches."""
        words = dict(input_words)
        return FaultEpisodePlan(
            self.circuit, faults, words, n,
            state_cache=self._states_for(words, n))

    def simulate(self, faults: "Sequence[Fault]",
                 input_words: Mapping[str, int], n: int,
                 drop: bool = True) -> "FaultSimResult":
        """Simulate ``faults`` against ``n`` packed patterns.

        Same contract as :func:`repro.atpg.faultsim.fault_simulate`
        (detection words record all detecting patterns; ``remaining``
        is the undetected faults in input order), bit-identical to the
        per-batch reference.  A fault on a
        line the circuit does not have raises
        :class:`~repro.errors.SimulationError`.
        """
        from repro.atpg.faultsim import check_fault_lines
        check_fault_lines(self.circuit, faults)
        plan = self.compile(faults, input_words, n)
        # The budget was resolved once at construction; 0 pins it off so
        # a later session default cannot flip one run mid-flight.
        return self.engine.fault_simulate_plan(
            plan, drop=drop, stream_budget=self.stream_budget or 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<FaultSimSession {self.circuit.name!r} "
                f"engine={self.engine.name!r}>")
