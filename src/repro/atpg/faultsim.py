"""Bit-parallel stuck-at fault simulation with fault dropping.

For each fault: force the faulty line's packed waveform to the stuck
value, propagate the difference event by event to the gates it reaches,
and compare the good and faulty words at the observable lines.  With
64-4096 patterns per packed word this is the standard parallel-pattern
single-fault method.

The heavy lifting is delegated to the selected simulation backend via
:meth:`~repro.simulation.backends.base.Backend.fault_simulate_batch`:

* ``bigint`` runs the scalar big-int event-driven replay below (the
  bit-exact reference);
* ``numpy`` replays whole fault batches on the ``uint64`` pattern matrix
  (:mod:`repro.simulation.backends.fault_kernel`);
* ``sharded`` partitions the fault list over worker processes and merges
  the per-shard results deterministically
  (:mod:`repro.simulation.backends.sharded`).

All engines return bit-identical detection words and the same
``remaining`` ordering; the differential property tests in
``tests/properties`` enforce this.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Collection, Mapping, Sequence

from repro.atpg.faults import Fault, observable_lines
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.simulation.backends import Backend, resolve_fault_backend
from repro.simulation.bitsim import eval_gate_packed
from repro.simulation.values import mask

__all__ = ["FaultSimResult", "check_fault_lines", "detect_word",
           "fault_simulate", "scalar_fault_simulate", "scalar_replay"]


@dataclasses.dataclass
class FaultSimResult:
    """Outcome of simulating a fault list against a pattern set.

    ``detected[f]`` is the packed word of patterns that detect ``f``
    (missing = undetected); ``remaining`` lists the *undetected* faults,
    in the order they were given.
    """

    detected: dict[Fault, int]
    remaining: list[Fault]

    @property
    def n_detected(self) -> int:
        return len(self.detected)

    def coverage(self, n_faults: int | None = None) -> float:
        total = n_faults if n_faults is not None else \
            len(self.detected) + len(self.remaining)
        if total == 0:
            return 1.0
        return len(self.detected) / total


def check_fault_lines(circuit: Circuit, faults: Sequence[Fault]) -> None:
    """Raise :class:`~repro.errors.SimulationError` for a fault on a line
    ``circuit`` does not have (every engine rejects it the same way)."""
    for fault in faults:
        if not circuit.has_line(fault.line):
            raise SimulationError(
                f"fault {fault} is on unknown line {fault.line!r} "
                f"of circuit {circuit.name!r}")


def _replay(circuit: Circuit, line: str, faulty_value: int,
            good: Mapping[str, int], full: int) -> dict[str, int]:
    """Faulty words of every line whose word differs from ``good``.

    Event-driven: starting at the fault line, only the combinational
    sinks of lines that differ are evaluated, drained in level order
    (a sink's level exceeds every input's, so its inputs are settled by
    the time its bucket is drained).  DFF sinks are level 0 and stop the
    effect at their D pins, like the test view's cone boundary.
    """
    fanout = circuit.fanout
    level_of = circuit.level_of
    gates = circuit.gates
    faulty = {line: faulty_value}
    buckets: dict[int, list[str]] = {}
    queued: set[str] = set()
    changed = [line]
    while True:
        for src in changed:
            for sink, _pin in fanout(src):
                if sink not in queued:
                    level = level_of(sink)
                    if level:
                        queued.add(sink)
                        buckets.setdefault(level, []).append(sink)
        if not buckets:
            return faulty
        changed = []
        for out in buckets.pop(min(buckets)):
            gate = gates[out]
            value = eval_gate_packed(
                gate.gtype, [faulty.get(src, good[src])
                             for src in gate.inputs], full)
            if value != good[out]:
                faulty[out] = value
                changed.append(out)


def detect_word(circuit: Circuit, fault: Fault, good: Mapping[str, int],
                n: int, obs: Collection[str] | None = None) -> int:
    """Packed word of patterns on which ``fault`` is detected.

    ``good`` must hold the fault-free simulation of all lines for the same
    patterns (from :func:`repro.simulation.bitsim.simulate_packed`).
    ``obs`` defaults to :func:`~repro.atpg.faults.observable_lines`; it
    is only tested for membership, so pass a set when replaying many
    faults.
    """
    check_fault_lines(circuit, [fault])
    full = mask(n)
    faulty_value = full if fault.stuck_at else 0
    if good[fault.line] == faulty_value:
        return 0  # stuck value equals the good value everywhere
    obs = set(observable_lines(circuit)) if obs is None else obs
    detected = 0
    for line, value in _replay(circuit, fault.line, faulty_value, good,
                               full).items():
        if line in obs:
            detected |= value ^ good[line]
    return detected


def scalar_replay(circuit: Circuit, faults: Sequence[Fault],
                  good: Mapping[str, int], n: int) -> FaultSimResult:
    """Scalar event-driven replay over an already-settled good machine.

    ``good`` holds the fault-free interchange words of every line
    (whichever backend produced them — words are backend-agnostic).
    This is the shared core of :func:`scalar_fault_simulate` and of the
    plan-based reference path
    (:meth:`~repro.simulation.backends.base.Backend.fault_simulate_plan`),
    which reuses one good machine across many calls instead of
    re-simulating it per batch.
    """
    obs = set(observable_lines(circuit))
    detected: dict[Fault, int] = {}
    remaining: list[Fault] = []
    for fault in faults:
        word = detect_word(circuit, fault, good, n, obs)
        if word:
            detected[fault] = word
        else:
            remaining.append(fault)
    return FaultSimResult(detected=detected, remaining=remaining)


def scalar_fault_simulate(backend: Backend, circuit: Circuit,
                          faults: Sequence[Fault],
                          input_words: Mapping[str, int], n: int,
                          drop: bool = True) -> FaultSimResult:
    """Reference fault simulation: scalar big-int event-driven replay.

    ``backend`` supplies the fault-free pass; the per-fault replay works
    on interchange words, so detection words are bit-identical no matter
    which backend computed the good machine.  This is the default
    :meth:`~repro.simulation.backends.base.Backend.fault_simulate_batch`
    implementation and the semantics every vectorized kernel must
    reproduce exactly.
    """
    good = backend.simulate_packed(circuit, input_words, n)
    return scalar_replay(circuit, faults, good, n)


def fault_simulate(circuit: Circuit, faults: Sequence[Fault],
                   input_words: Mapping[str, int], n: int,
                   drop: bool = True,
                   backend: str | Backend | None = None
                   ) -> FaultSimResult:
    """Simulate ``faults`` against ``n`` packed patterns.

    ``remaining`` always holds exactly the undetected faults, in input
    order.  ``drop=True`` (default) lets an engine stop refining a fault
    once it is detected; the detection word still records *all* detecting
    patterns of this batch (which reverse-order compaction exploits), so
    the result does not depend on ``drop``.  Dropping *across* batches is
    the caller's job: feed ``result.remaining`` to the next call.

    ``backend`` selects the fault-simulation engine (name, instance or
    ``None``).  ``None`` resolves to ``$REPRO_FAULT_BACKEND`` when set,
    else the session default.  Detection words and ``remaining`` ordering
    are bit-identical across all engines.  A fault on a line the circuit
    does not have raises :class:`~repro.errors.SimulationError`.
    """
    engine = resolve_fault_backend(backend)
    check_fault_lines(circuit, faults)
    return engine.fault_simulate_batch(circuit, faults, input_words, n,
                                       drop=drop)
