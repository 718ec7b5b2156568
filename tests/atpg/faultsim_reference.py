"""Reference fault replay: the oracle for the event-driven replay.

This is the original cone-ordered replay of :mod:`repro.atpg.faultsim`
kept verbatim as a test-side oracle: per fault line it extracts the
whole fanout cone (a ``fanout_cone`` BFS filtered through a fresh
``topo_order()``), then re-evaluates every cone gate in topological
order, even after the fault effect has died.  It is deliberately slow
and obviously correct.

* :func:`detect_word` is the per-fault detection word;
* :func:`scalar_replay` replays a fault list over settled good-machine
  words and returns detection words plus ``remaining`` in input order.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.atpg.faults import Fault, observable_lines
from repro.atpg.faultsim import FaultSimResult
from repro.netlist.circuit import Circuit
from repro.simulation.bitsim import eval_gate_packed
from repro.simulation.values import mask

__all__ = ["detect_word", "scalar_replay"]


def _cone_order(circuit: Circuit, line: str) -> list[str]:
    """Gate outputs in the fanout cone of ``line``, topologically ordered."""
    cone = circuit.fanout_cone(line)
    return [g for g in circuit.topo_order() if g in cone and g != line]


def detect_word(circuit: Circuit, fault: Fault, good: Mapping[str, int],
                n: int, obs: Sequence[str] | None = None,
                cone: Sequence[str] | None = None) -> int:
    """Packed word of patterns on which ``fault`` is detected.

    ``good`` must hold the fault-free simulation of all lines for the same
    patterns (from :func:`repro.simulation.bitsim.simulate_packed`).
    """
    full = mask(n)
    faulty_value = full if fault.stuck_at else 0
    if good.get(fault.line, None) == faulty_value:
        return 0  # stuck value equals the good value everywhere

    obs = obs if obs is not None else observable_lines(circuit)
    cone = cone if cone is not None else _cone_order(circuit, fault.line)

    faulty: dict[str, int] = {fault.line: faulty_value}
    for out in cone:
        gate = circuit.gates[out]
        words = [faulty.get(src, good[src]) for src in gate.inputs]
        value = eval_gate_packed(gate.gtype, words, full)
        if value == good[out]:
            # Effect dies here; only record differences.
            faulty.pop(out, None)
        else:
            faulty[out] = value

    detected = 0
    for line in obs:
        if line in faulty:
            detected |= faulty[line] ^ good[line]
    return detected


def scalar_replay(circuit: Circuit, faults: Sequence[Fault],
                  good: Mapping[str, int], n: int,
                  cone_cache: dict[str, list[str]] | None = None
                  ) -> FaultSimResult:
    """Scalar cone replay over an already-settled good machine.

    ``good`` holds the fault-free interchange words of every line
    (whichever backend produced them — words are backend-agnostic).
    """
    obs = observable_lines(circuit)
    detected: dict[Fault, int] = {}
    remaining: list[Fault] = []
    if cone_cache is None:
        cone_cache = {}
    for fault in faults:
        cone = cone_cache.get(fault.line)
        if cone is None:
            cone = _cone_order(circuit, fault.line)
            cone_cache[fault.line] = cone
        word = detect_word(circuit, fault, good, n, obs, cone)
        if word:
            detected[fault] = word
        else:
            remaining.append(fault)
    return FaultSimResult(detected=detected, remaining=remaining)
