"""Fault x pattern replay sessions: whole-test-set fault detection.

The scan-power literature evaluates fault coverage over the *entire*
applied test set, which is the fault x pattern detection matrix.  ATPG
and every Table-I run ask for it many times on the same circuit, often
on the same stimulus.  A :class:`FaultSimSession` keeps the fault-free
("good machine") words of the last few stimuli and replays each fault
list with the scalar row-space replay of :mod:`repro.atpg.faultsim`
over them, so incremental fault dropping never re-simulates the good
machine.

Everything is bit-identical to :func:`~repro.atpg.faultsim.
fault_simulate`: detection words, ``remaining`` ordering, coverage
statistics and compacted test sets — the differential property tests
in ``tests/properties`` pin this against frozen oracles.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from repro.netlist.circuit import Circuit
from repro.obs.trace import span
from repro.simulation.bitsim import simulate_packed

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.atpg.faults import Fault
    from repro.atpg.faultsim import FaultSimResult

__all__ = ["FaultSimSession"]


def fault_planning_enabled(flag: bool | None = None) -> bool:
    """Always ``True``: the planned replay is the only product path.

    Kept only because ``perfbench/workloads.py`` (``resolved_runtime``)
    imports it to record the resolved engines; it reads neither the
    environment nor the session.
    """
    return True


#: Good-machine states kept per session: distinct stimuli worth caching
#: at once (ATPG alternates between at most a few within one phase).
_SESSION_STATE_SLOTS = 4


class FaultSimSession:
    """Persistent fault-simulation context for one circuit.

    Carries a bounded LRU of good-machine words across *many*
    fault-simulation calls (ATPG batches, compaction, coverage
    accounting), keyed on the circuit's structure version, the pattern
    count and the stimulus.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._state_pool: "OrderedDict[tuple, dict[str, int]]" = \
            OrderedDict()

    def good_words(self, input_words: Mapping[str, int], n: int
                   ) -> dict[str, int]:
        """The fault-free words of ``n`` packed patterns, settled once
        per stimulus while it stays in the pool.

        Keyed on the circuit's structure version too, so a mutated
        circuit never reuses a good machine settled on its old netlist.
        """
        key = (self.circuit.version, n, tuple(sorted(input_words.items())))
        words = self._state_pool.get(key)
        if words is None:
            with span("plan.fault_good_state", patterns=n):
                words = simulate_packed(self.circuit, input_words, n)
            self._state_pool[key] = words
            while len(self._state_pool) > _SESSION_STATE_SLOTS:
                self._state_pool.popitem(last=False)
        else:
            self._state_pool.move_to_end(key)
        return words

    def simulate(self, faults: "Sequence[Fault]",
                 input_words: Mapping[str, int], n: int,
                 drop: bool = True) -> "FaultSimResult":
        """Simulate ``faults`` against ``n`` packed patterns.

        Same contract as :func:`repro.atpg.faultsim.fault_simulate`
        (detection words record all detecting patterns; ``remaining``
        is the undetected faults in input order).  A fault on a line the
        circuit does not have, or ``n < 1``, raises
        :class:`~repro.errors.SimulationError`.
        """
        from repro.atpg.faultsim import (
            check_fault_lines,
            check_pattern_count,
            scalar_replay,
        )
        check_fault_lines(self.circuit, faults)
        check_pattern_count(n)
        with span("sim.fault_plan", faults=len(faults), patterns=n):
            return scalar_replay(self.circuit, faults,
                                 self.good_words(input_words, n), n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultSimSession {self.circuit.name!r}>"
