"""Transition Node Set / Transition Gate Set bookkeeping (paper Section 4).

Definitions from the paper:

* a **transition node** (tn) is a line that may still carry transitions
  originating from the non-multiplexed pseudo-inputs under the current
  (partial) controlled-input assignment;
* the **TNS** is the set of all transition nodes;
* every gate fed by a tn is a **transition gate** (tg); the **TGS** holds
  the gates where a transition may yet be *blocked* by justifying a
  controlling value on a side input.

``update_tns_tgs`` is the paper's ``Update TNS, TGS`` procedure:

1. transitions always pass through NOT / BUFF / XOR / XNOR and fanout
   branches (no side input can stop them);
2. a controlling value on any side input kills the transition at that
   gate;
3. if every side input already holds a non-controlling value the
   transition passes to the gate's output;
4. otherwise (some side input is X) the gate is a blocking candidate and
   enters the TGS.

Gates on which blocking already *failed* (all candidates unjustifiable)
are treated as propagating, never re-entering the TGS.
"""

from __future__ import annotations

import dataclasses
import weakref
from collections.abc import Mapping

from repro.netlist.circuit import Circuit
from repro.netlist.gates import (
    GateType,
    SEQUENTIAL_TYPES,
    X,
    controlling_value,
)

__all__ = ["TransitionAnalysis", "update_tns_tgs"]

#: Gates with a controlling value — the only ones blockable by one input.
_BLOCKABLE = frozenset({
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
})

#: one sink of a line: ``(gate output, controlling value or None where
#: a transition always passes, the gate's other inputs)``
_Sink = tuple[str, int | None, tuple[str, ...]]
#: per line, its non-DFF sinks in fanout order (one per input pin)
_Sinks = dict[str, tuple[_Sink, ...]]

_SINK_CACHE: "weakref.WeakKeyDictionary[Circuit, tuple[int, _Sinks]]" = \
    weakref.WeakKeyDictionary()


@dataclasses.dataclass
class TransitionAnalysis:
    """Result of one TNS/TGS update pass.

    Attributes
    ----------
    tns:
        All transition nodes (closed under propagation).
    tgs:
        Blocking candidates: gate output -> list of its tn inputs.
    blocked_at:
        Gates where an assigned controlling side input stops a transition.
    """

    tns: set[str]
    tgs: dict[str, list[str]]
    blocked_at: set[str]


def _compile_sinks(circuit: Circuit) -> _Sinks:
    """Every line's transition sinks; flop D pins stop transitions in
    scan mode, so DFFs are left out."""
    gates = circuit.gates
    sinks: _Sinks = {}
    for line in circuit.lines():
        entries: list[_Sink] = []
        for out, _pin in circuit.fanout(line):
            gtype = gates[out].gtype
            if gtype in SEQUENTIAL_TYPES:
                continue
            if gtype in _BLOCKABLE:
                entries.append((out, controlling_value(gtype),
                                tuple(s for s in gates[out].inputs
                                      if s != line)))
            else:
                entries.append((out, None, ()))
        if entries:
            sinks[line] = tuple(entries)
    return sinks


def _cached_sinks(circuit: Circuit) -> _Sinks:
    """Memoized :func:`_compile_sinks`, invalidated by circuit mutation."""
    cached = _SINK_CACHE.get(circuit)
    if cached is None or cached[0] != circuit.version:
        cached = _SINK_CACHE[circuit] = (circuit.version,
                                         _compile_sinks(circuit))
    return cached[1]


def update_tns_tgs(circuit: Circuit, values: Mapping[str, int],
                   sources: set[str],
                   failed_gates: set[str] | None = None
                   ) -> TransitionAnalysis:
    """Propagate transition reachability from ``sources``.

    Parameters
    ----------
    circuit:
        The netlist under analysis.
    values:
        Current three-valued line assignment (settled).
    sources:
        Seed transition nodes — the non-multiplexed pseudo-inputs, plus
        any gate outputs through which blocking has already failed.
    failed_gates:
        Gates where every blocking attempt failed; they propagate
        unconditionally and stay out of the TGS.
    """
    failed_gates = failed_gates or set()
    sinks = _cached_sinks(circuit)
    get = values.get
    tns: set[str] = set()
    tgs: dict[str, list[str]] = {}
    blocked_at: set[str] = set()

    worklist = sorted(sources)
    while worklist:
        tn = worklist.pop()
        if tn in tns:
            continue
        tns.add(tn)
        for out, cv, side in sinks.get(tn, ()):
            if out in tns:
                continue
            if cv is None or out in failed_gates:
                worklist.append(out)
                continue
            side_values = [get(s, X) for s in side]
            if cv in side_values:
                blocked_at.add(out)
                tgs.pop(out, None)
            elif side_values.count(1 - cv) == len(side_values):
                worklist.append(out)
                tgs.pop(out, None)
            else:
                tgs.setdefault(out, []).append(tn)

    # A gate reached by several tn inputs may have been classified as a
    # candidate before a later tn pushed its output into the TNS; candidates
    # whose output carries a transition anyway are no candidates at all.
    for out in list(tgs):
        if out in tns:
            del tgs[out]
    return TransitionAnalysis(tns=tns, tgs=tgs, blocked_at=blocked_at)
