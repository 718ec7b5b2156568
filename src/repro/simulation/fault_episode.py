"""Fault x pattern batched replay: whole-test-set fault detection.

PR 4 turned whole-test-set *power* replay into one matrix
(:mod:`repro.simulation.episode`); this module does the same for fault
detection — the dominant cost of ATPG and of every Table-I run.  The
scan-power literature evaluates fault coverage over the *entire* applied
test set, which is exactly the fault x pattern detection matrix, so
instead of driving many independent
:func:`~repro.atpg.faultsim.fault_simulate` calls (each re-simulating
the good machine) the whole fault universe and the whole pattern set
are packed into **one** :class:`FaultEpisodePlan` and handed to
:meth:`~repro.simulation.backends.base.Backend.fault_simulate_plan`,
which replays it with the scalar row-space replay of
:mod:`repro.atpg.faultsim` on the plan's memoized good-machine words
(settled once per backend).

A :class:`FaultSimSession` carries the plan machinery and the
good-machine state cache across the many batches of one ATPG run (or
one campaign circuit), so incremental fault dropping never re-simulates
the good machine.

Everything is bit-identical to the per-batch reference
(:meth:`~repro.simulation.backends.base.Backend.fault_simulate_batch`):
detection words, ``remaining`` ordering, coverage statistics and
compacted test sets never depend on the engine — the differential
property tests in ``tests/properties`` pin this.
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
    from repro.simulation.backends import Backend

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

    The plan memoizes the fault-free ("good machine") words per
    backend, so every engine reuses one settled simulation instead of
    re-simulating per call.
    """

    def __init__(self, circuit: Circuit, faults: "Sequence[Fault]",
                 input_words: Mapping[str, int], n: int,
                 state_cache: "dict[str, dict[str, int]] | None" = None):
        if n < 1:
            raise SimulationError("fault episode plan needs >= 1 pattern")
        self.circuit = circuit
        self.faults: "tuple[Fault, ...]" = tuple(faults)
        self.input_words = dict(input_words)
        self.n = n
        self._states: dict[str, dict[str, int]] = \
            {} if state_cache is None else state_cache

    @property
    def n_faults(self) -> int:
        return len(self.faults)

    @property
    def n_words(self) -> int:
        """``uint64`` words per packed waveform row."""
        return (self.n + 63) // 64

    def good_words(self, backend: "Backend") -> dict[str, int]:
        """Interchange words of the fault-free simulation on
        ``backend``, memoized by backend name.

        The cache may be shared with a :class:`FaultSimSession` so
        identical stimuli reuse one settled good machine across plans.
        """
        words = self._states.get(backend.name)
        if words is None:
            with span("plan.fault_good_state", backend=backend.name,
                      patterns=self.n):
                words = backend.simulate_packed(self.circuit,
                                                self.input_words, self.n)
            self._states[backend.name] = words
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
        Engine of the fault-free pass (name, instance or ``None`` —
        resolved through
        :func:`~repro.simulation.backends.resolve_backend`).
    """

    def __init__(self, circuit: Circuit,
                 backend: "str | Backend | None" = None):
        from repro.simulation.backends import resolve_backend
        self.circuit = circuit
        self.engine = resolve_backend(backend)
        self._state_pool: \
            "OrderedDict[tuple, dict[str, dict[str, int]]]" = OrderedDict()

    def _states_for(self, input_words: Mapping[str, int], n: int
                    ) -> dict[str, dict[str, int]]:
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
        return self.engine.fault_simulate_plan(plan, drop=drop)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<FaultSimSession {self.circuit.name!r} "
                f"engine={self.engine.name!r}>")
