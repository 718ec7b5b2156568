"""Gate-level circuit data structure.

A :class:`Circuit` is a named collection of *lines* (nets) and *gates*.
Each gate drives exactly one line (its ``output``); a line is driven either
by a gate or by being a primary input.  D flip-flops are gates of type
``DFF`` whose output line is the flop's Q and whose single input line is
its D — this matches the ISCAS89 ``.bench`` view of sequential circuits.

The class maintains fanout maps and a cached topological order of the
combinational gates (DFFs excluded), both invalidated on mutation.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.errors import NetlistError
from repro.netlist.gates import (
    GateType,
    SEQUENTIAL_TYPES,
    check_arity,
)
from repro.utils.topo import topological_order
from repro.utils.validation import check_name

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Gate", "Circuit"]


@dataclasses.dataclass(frozen=True)
class Gate:
    """One gate instance: ``output = gtype(inputs...)``.

    Immutable; circuit edits replace Gate objects rather than mutating them.
    """

    output: str
    gtype: GateType
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        check_name(self.output, "gate output")
        for name in self.inputs:
            check_name(name, "gate input")
        check_arity(self.gtype, len(self.inputs))

    def __str__(self) -> str:
        return f"{self.output} = {self.gtype}({', '.join(self.inputs)})"


class Circuit:
    """A gate-level netlist with primary inputs, outputs and DFF state.

    Construction is incremental (:meth:`add_input`, :meth:`add_gate`,
    :meth:`add_output`); :meth:`validate` checks global consistency.
    All structural queries (fanouts, topological order, levels) are cached
    and recomputed lazily after mutations.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._gates: dict[str, Gate] = {}
        self._input_set: set[str] = set()
        self._output_set: set[str] = set()
        self._dirty = True
        self._version = 0
        self._fingerprint: tuple[int, str] | None = None
        self._fanouts: dict[str, list[tuple[str, int]]] = {}
        self._topo: list[str] = []
        self._levels: dict[str, int] = {}

    def _touch(self) -> None:
        """Mark derived structure stale and advance the structure version."""
        self._dirty = True
        self._version += 1

    @property
    def version(self) -> int:
        """Monotonic structure version, bumped on every mutation.

        External caches keyed on the circuit object (e.g. the levelized
        simulation schedules) use this to detect staleness.
        """
        return self._version

    def fingerprint(self) -> str:
        """Process-independent content digest of the netlist.

        Covers the name, PI/PO declarations and every gate (output,
        type, input tuple) in insertion order — everything a simulation
        result can depend on.  Unlike :attr:`version` (an in-process
        mutation counter) the fingerprint is identical for structurally
        identical circuits built in different processes, so the
        campaign result cache keys artefacts on it.  Memoized per
        :attr:`version`.
        """
        if self._fingerprint is not None \
                and self._fingerprint[0] == self._version:
            return self._fingerprint[1]
        import hashlib
        parts = [self.name, "|", ",".join(self._inputs), "|",
                 ",".join(self._outputs), "|"]
        for gate in self._gates.values():
            parts.append(
                f"{gate.output}={gate.gtype.value}"
                f"({','.join(gate.inputs)});")
        digest = hashlib.sha256("".join(parts).encode()).hexdigest()
        self._fingerprint = (self._version, digest)
        return digest

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary input line names, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[str, ...]:
        """Primary output line names, in declaration order."""
        return tuple(self._outputs)

    @property
    def gates(self) -> dict[str, Gate]:
        """Mapping from driven line name to its :class:`Gate` (read-only view).

        Mutate through :meth:`add_gate` / :meth:`remove_gate` /
        :meth:`replace_gate`, never through this dict.
        """
        return self._gates

    def gate(self, line: str) -> Gate:
        """The gate driving ``line`` (raises ``KeyError`` for PIs/undriven)."""
        return self._gates[line]

    def is_input(self, line: str) -> bool:
        """True if ``line`` is a primary input."""
        return line in self._input_set

    def is_output(self, line: str) -> bool:
        """True if ``line`` is declared as a primary output."""
        return line in self._output_set

    def has_line(self, line: str) -> bool:
        """True if ``line`` exists (as a PI or as a gate output)."""
        return line in self._input_set or line in self._gates

    def lines(self) -> Iterator[str]:
        """All line names: primary inputs first, then gate outputs."""
        yield from self._inputs
        yield from self._gates

    @property
    def dff_gates(self) -> list[Gate]:
        """All DFF gates (state elements), in insertion order."""
        return [g for g in self._gates.values()
                if g.gtype in SEQUENTIAL_TYPES]

    @property
    def dff_outputs(self) -> list[str]:
        """Q lines of all flops — the pseudo-inputs of the test view."""
        return [g.output for g in self.dff_gates]

    def combinational_gates(self) -> list[Gate]:
        """All non-DFF gates, in insertion order."""
        return [g for g in self._gates.values()
                if g.gtype not in SEQUENTIAL_TYPES]

    def __len__(self) -> int:
        return len(self._gates)

    def __repr__(self) -> str:
        return (f"Circuit({self.name!r}: {len(self._inputs)} PI, "
                f"{len(self._outputs)} PO, {len(self.dff_gates)} DFF, "
                f"{len(self._gates) - len(self.dff_gates)} comb. gates)")

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def add_input(self, name: str) -> str:
        """Declare a primary input line."""
        check_name(name)
        if name in self._input_set:
            raise NetlistError(f"duplicate primary input {name!r}")
        if name in self._gates:
            raise NetlistError(f"line {name!r} is already driven by a gate")
        self._inputs.append(name)
        self._input_set.add(name)
        self._touch()
        return name

    def add_output(self, name: str) -> str:
        """Declare an existing-or-future line as a primary output."""
        check_name(name)
        if name in self._output_set:
            raise NetlistError(f"duplicate primary output {name!r}")
        self._outputs.append(name)
        self._output_set.add(name)
        self._touch()
        return name

    def add_gate(self, output: str, gtype: GateType,
                 inputs: Iterable[str]) -> Gate:
        """Add a gate driving ``output``; returns the new :class:`Gate`."""
        gate = Gate(output, gtype, tuple(inputs))
        if gate.output in self._input_set:
            raise NetlistError(
                f"line {gate.output!r} is a primary input, cannot be driven")
        if gate.output in self._gates:
            raise NetlistError(f"line {gate.output!r} already driven")
        self._gates[gate.output] = gate
        self._touch()
        return gate

    def remove_gate(self, output: str) -> Gate:
        """Remove the gate driving ``output``; returns the removed gate.

        The line disappears; the caller is responsible for any dangling
        references (checked by :meth:`validate`).
        """
        try:
            gate = self._gates.pop(output)
        except KeyError:
            raise NetlistError(f"no gate drives line {output!r}") from None
        self._touch()
        return gate

    def replace_gate(self, output: str, gtype: GateType,
                     inputs: Iterable[str]) -> Gate:
        """Replace the gate driving ``output`` in place (keeps order)."""
        if output not in self._gates:
            raise NetlistError(f"no gate drives line {output!r}")
        gate = Gate(output, gtype, tuple(inputs))
        self._gates[output] = gate
        self._touch()
        return gate

    def rename_line(self, old: str, new: str) -> None:
        """Rename a line everywhere (driver, fanins, PI/PO declarations)."""
        check_name(new)
        if not self.has_line(old):
            raise NetlistError(f"unknown line {old!r}")
        if self.has_line(new):
            raise NetlistError(f"line {new!r} already exists")
        if old in self._input_set:
            self._input_set.remove(old)
            self._input_set.add(new)
            self._inputs[self._inputs.index(old)] = new
        if old in self._gates:
            gate = self._gates.pop(old)
            self._gates[new] = Gate(new, gate.gtype, gate.inputs)
            # preserve iteration order as best we can: dict re-insertion puts
            # the renamed gate last, which is harmless (order is cosmetic).
        if old in self._output_set:
            self._output_set.remove(old)
            self._output_set.add(new)
            self._outputs[self._outputs.index(old)] = new
        for out, gate in list(self._gates.items()):
            if old in gate.inputs:
                new_inputs = tuple(new if i == old else i
                                   for i in gate.inputs)
                self._gates[out] = Gate(out, gate.gtype, new_inputs)
        self._touch()

    # ------------------------------------------------------------------ #
    # derived structure (cached)
    # ------------------------------------------------------------------ #

    def _refresh(self) -> None:
        if not self._dirty:
            return
        fanouts: dict[str, list[tuple[str, int]]] = {
            line: [] for line in self.lines()}
        for gate in self._gates.values():
            for pin, src in enumerate(gate.inputs):
                if src not in fanouts:
                    fanouts[src] = []
                fanouts[src].append((gate.output, pin))
        self._fanouts = fanouts

        comb = [g.output for g in self._gates.values()
                if g.gtype not in SEQUENTIAL_TYPES]

        def preds(line: str) -> tuple[str, ...]:
            return self._gates[line].inputs

        self._topo = topological_order(comb, preds)

        levels: dict[str, int] = {}
        for pi in self._inputs:
            levels[pi] = 0
        for q in self.dff_outputs:
            levels[q] = 0
        for line in self._topo:
            gate = self._gates[line]
            levels[line] = 1 + max(
                (levels.get(src, 0) for src in gate.inputs), default=0)
        self._levels = levels
        self._dirty = False

    def fanout(self, line: str) -> list[tuple[str, int]]:
        """List of ``(sink_gate_output, pin_index)`` pairs fed by ``line``."""
        self._refresh()
        return self._fanouts.get(line, [])

    def fanout_count(self, line: str) -> int:
        """Number of gate input pins driven by ``line``."""
        return len(self.fanout(line))

    def topo_order(self) -> list[str]:
        """Combinational gate outputs in topological (fanin-first) order.

        DFF gates are excluded; their Q lines act as sources (level 0).
        Raises :class:`CombinationalLoopError` on cyclic combinational logic.
        """
        self._refresh()
        return list(self._topo)

    def level_of(self, line: str) -> int:
        """Logic level of ``line`` (0 for PIs and DFF outputs)."""
        self._refresh()
        try:
            return self._levels[line]
        except KeyError:
            raise NetlistError(f"unknown line {line!r}") from None

    def depth(self) -> int:
        """Maximum logic level over all lines (0 for an empty circuit)."""
        self._refresh()
        return max(self._levels.values(), default=0)

    # ------------------------------------------------------------------ #
    # cones
    # ------------------------------------------------------------------ #

    def fanin_cone(self, line: str) -> set[str]:
        """All lines in the transitive fanin of ``line`` (inclusive).

        DFF gates are treated as cone boundaries: the cone stops at Q lines.
        """
        seen: set[str] = set()
        stack = [line]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            gate = self._gates.get(cur)
            if gate is not None and gate.gtype not in SEQUENTIAL_TYPES:
                stack.extend(gate.inputs)
        return seen

    def fanout_cone(self, line: str) -> set[str]:
        """All lines in the transitive fanout of ``line`` (inclusive).

        Stops at DFF D pins (the flop output is not part of the cone).
        """
        self._refresh()
        seen: set[str] = set()
        stack = [line]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for sink, _pin in self._fanouts.get(cur, []):
                if self._gates[sink].gtype not in SEQUENTIAL_TYPES:
                    stack.append(sink)
        return seen

    # ------------------------------------------------------------------ #
    # consistency / export
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check global consistency; raises :class:`NetlistError` on problems.

        Checks: every gate input and every PO refers to an existing line;
        the combinational part is acyclic (via :meth:`topo_order`).
        """
        for gate in self._gates.values():
            for src in gate.inputs:
                if not self.has_line(src):
                    raise NetlistError(
                        f"gate {gate.output!r} reads undriven line {src!r}")
        for po in self._outputs:
            if not self.has_line(po):
                raise NetlistError(f"primary output {po!r} is undriven")
        self.topo_order()

    def copy(self, name: str | None = None) -> "Circuit":
        """Deep-enough copy (Gate objects are immutable and shared)."""
        clone = Circuit(name if name is not None else self.name)
        clone._inputs = list(self._inputs)
        clone._input_set = set(self._input_set)
        clone._outputs = list(self._outputs)
        clone._output_set = set(self._output_set)
        clone._gates = dict(self._gates)
        clone._dirty = True
        return clone

    def to_networkx(self) -> nx.DiGraph:
        """Export as a :class:`networkx.DiGraph` (nodes = lines).

        Node attributes: ``kind`` in {"input", "gate", "dff"}, and ``gtype``
        for driven lines.  Edge ``(u, v)`` means line ``u`` feeds the gate
        driving line ``v``; edge attribute ``pin`` is the input position.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for pi in self._inputs:
            graph.add_node(pi, kind="input")
        for gate in self._gates.values():
            kind = "dff" if gate.gtype in SEQUENTIAL_TYPES else "gate"
            graph.add_node(gate.output, kind=kind, gtype=gate.gtype.value)
        for gate in self._gates.values():
            for pin, src in enumerate(gate.inputs):
                graph.add_edge(src, gate.output, pin=pin)
        return graph
