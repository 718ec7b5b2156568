"""Frozen event-driven fault replay: an oracle for the row-space replay.

This is the level-bucketed, name-keyed event-driven replay of
:mod:`repro.atpg.faultsim` kept verbatim as a test-side oracle.  Per
fault it overlays a dict of faulty words on the good machine, queues
the combinational sinks of every line whose word differs, and drains
them in level order with one :func:`eval_gate_packed` call per event.

It is the denominator of the bigint replay speedup in
``benchmarks/bench_perf.py``, so keep it byte-for-byte as it is: a
faster oracle would silently move that gate.

* :func:`detect_word` is the per-fault detection word;
* :func:`scalar_replay` replays a fault list over settled good-machine
  words and returns detection words plus ``remaining`` in input order.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence

from repro.atpg.faults import Fault, observable_lines
from repro.atpg.faultsim import FaultSimResult, check_fault_lines
from repro.netlist.circuit import Circuit
from repro.simulation.bitsim import eval_gate_packed
from repro.simulation.values import mask

__all__ = ["detect_word", "scalar_replay"]


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
