"""PODEM test generation for single stuck-at faults.

Classic PODEM (Goel 1981): decisions are made only on controllable inputs
(here: primary inputs *and* pseudo-inputs, since scan makes flops fully
controllable), mapped from internal objectives by backtrace, with
three-valued implication after every decision and chronological
backtracking.

Instead of a 5-valued D-calculus we carry **two** three-valued
simulations — the good machine and the faulty machine (with the fault
site forced) — which is equivalent: a line carries ``D`` exactly when the
two machines disagree on binary values.

Implementation note: PODEM spends its whole life in implication, so the
inner machine works on an integer-indexed copy of the netlist (compiled
gate tuples, flat lists) and implies incrementally:

* **Trail undo.**  Every line an assignment changes is pushed on a trail
  as ``(line, old good, old bad)``; a backtrack pops the trail back to
  the assignment's mark instead of re-implying X.  Because decisions
  only refine X inputs and three-valued logic is monotone, implication
  only ever turns X into 0/1, so a line already binary is final.
* **Cone-limited faulty machine.**  Outside the fault's fanout cone the
  faulty machine equals the good one; only cone lines (a per-fault
  ``bytearray`` mark) are evaluated twice.
* **Level buckets.**  Events queue into one list per logic level (a
  ``bytearray`` dedups them) instead of a heap; the AND/OR family is
  evaluated inline and the rest through a per-op evaluator table.  An
  incremental count of observable D lines answers :meth:`detected`.

The decision procedure (objective, backtrace, SCOAP guidance) sees the
same values after every step as a from-scratch implication would, so
verdicts, backtrack and decision counts and assignments do not depend on
it.  All public interfaces speak line names.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping

from repro.atpg.faults import Fault, observable_lines
from repro.atpg.scoap import compute_scoap
from repro.errors import AtpgError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType, X
from repro.simulation.eval2 import comb_input_lines

__all__ = ["PodemResult", "PodemEngine", "generate_test"]

# integer opcodes for the index machine
_AND, _NAND, _OR, _NOR, _NOT, _BUF, _XOR, _XNOR, _MUX, _C0, _C1 = range(11)

_OPCODE = {
    GateType.AND: _AND, GateType.NAND: _NAND,
    GateType.OR: _OR, GateType.NOR: _NOR,
    GateType.NOT: _NOT, GateType.BUFF: _BUF,
    GateType.XOR: _XOR, GateType.XNOR: _XNOR,
    GateType.MUX2: _MUX,
    GateType.CONST0: _C0, GateType.CONST1: _C1,
}

#: controlling value per opcode (None encoded as -1)
_CV = {_AND: 0, _NAND: 0, _OR: 1, _NOR: 1}
_RESPONSE = {_AND: 0, _NAND: 1, _OR: 1, _NOR: 0}


@dataclasses.dataclass
class PodemResult:
    """Outcome of one PODEM run.

    ``status`` is "detected", "untestable" or "aborted"; on detection
    ``assignment`` holds the (possibly partial) controllable input values.
    ``backtracks`` and ``decisions`` measure the search effort; a run
    aborted on the decision budget counts the refused decision.
    """

    status: str
    assignment: dict[str, int]
    backtracks: int
    decisions: int = 0

    @property
    def detected(self) -> bool:
        return self.status == "detected"


def _eval_xor(values: list[int], fanin: tuple[int, ...]) -> int:
    parity = 0
    for i in fanin:
        v = values[i]
        if v == X:
            return X
        parity ^= v
    return parity


def _eval_xnor(values: list[int], fanin: tuple[int, ...]) -> int:
    v = _eval_xor(values, fanin)
    return X if v == X else 1 - v


def _eval_mux(values: list[int], fanin: tuple[int, ...]) -> int:
    sel = values[fanin[0]]
    d0 = values[fanin[1]]
    d1 = values[fanin[2]]
    if sel == 0:
        return d0
    if sel == 1:
        return d1
    if d0 == d1 and d0 != X:
        return d0
    return X


def _eval_c0(values: list[int], fanin: tuple[int, ...]) -> int:
    return 0


def _eval_c1(values: list[int], fanin: tuple[int, ...]) -> int:
    return 1


#: Per-op evaluation: ``(cv, controlled output, uncontrolled output,
#: evaluator)``.  The AND family (NOT and BUF are one-input NAND and
#: AND) has no evaluator and is evaluated inline by the implication
#: loop: the output is the controlled one as soon as an input carries
#: ``cv``, else X if any input is X, else the uncontrolled one.
_EVAL: dict[int, tuple[int, int, int, Callable | None]] = {
    _AND: (0, 0, 1, None), _NAND: (0, 1, 0, None),
    _OR: (1, 1, 0, None), _NOR: (1, 0, 1, None),
    _NOT: (0, 1, 0, None), _BUF: (0, 0, 1, None),
    _XOR: (-1, X, X, _eval_xor), _XNOR: (-1, X, X, _eval_xnor),
    _MUX: (-1, X, X, _eval_mux),
    _C0: (-1, X, X, _eval_c0), _C1: (-1, X, X, _eval_c1),
}


def _evaluate(gate: tuple, values: list[int]) -> int:
    """Three-valued evaluation of one compiled gate over ``values``."""
    cv, controlled, uncontrolled, fn, fanin = gate
    if fn is not None:
        return fn(values, fanin)
    out = uncontrolled
    for i in fanin:
        v = values[i]
        if v == cv:
            return controlled
        if v == X:
            out = X
    return out


class PodemEngine:
    """Reusable PODEM engine over an integer-indexed netlist.

    The expensive circuit-wide structures — index maps, compiled gates,
    fanout tables, level buckets, SCOAP measures and the all-X good
    machine — are built **once**; each fault copies the all-X state,
    marks its (cached) fanout cone and implies the stuck value through
    it.  Use one engine per circuit when generating many tests
    (:func:`repro.atpg.generate.generate_tests` does).

    Implication is incremental: every changed line is recorded on a
    trail as ``(line, old good, old bad)``, :meth:`assign` marks the
    trail and :meth:`unassign` pops back to the mark.  PODEM backtracks
    chronologically, so :meth:`unassign` must undo the most recent
    :meth:`assign`.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit

        names = list(circuit.lines())
        self.index = {name: i for i, name in enumerate(names)}
        self.names = names
        n = len(names)

        # per-line gate description (-1 op for sources / flop outputs)
        self.op: list[int] = [-1] * n
        self.fanin: list[tuple[int, ...]] = [()] * n
        self.level: list[int] = [0] * n
        self.fanout: list[list[int]] = [[] for _ in range(n)]
        self.topo_idx: list[int] = []
        # compiled gates: _EVAL entry + fanin (None for sources)
        self._gate: list[tuple | None] = [None] * n

        for line in circuit.topo_order():
            li = self.index[line]
            gate = circuit.gates[line]
            op = _OPCODE[gate.gtype]
            self.op[li] = op
            fin = tuple(self.index[s] for s in gate.inputs)
            self.fanin[li] = fin
            self._gate[li] = (*_EVAL[op], fin)
            self.level[li] = circuit.level_of(line)
            self.topo_idx.append(li)
            for si in fin:
                self.fanout[si].append(li)

        self.input_idx = [self.index[s] for s in comb_input_lines(circuit)]
        self.input_set = set(self.input_idx)
        self.obs_idx = [self.index[s] for s in observable_lines(circuit)]
        self.obs_set = set(self.obs_idx)
        self._is_obs = bytearray(n)
        for li in self.obs_set:
            self._is_obs[li] = 1

        # SCOAP testability guides backtrace (easiest/hardest choices)
        # and D-frontier selection (most observable propagation path).
        scoap = compute_scoap(circuit)
        self.cc0 = [scoap.cc0.get(name, 1) for name in names]
        self.cc1 = [scoap.cc1.get(name, 1) for name in names]
        self.co = [scoap.co.get(name, 0) for name in names]

        # The good machine with every input at X (constants still
        # imply); each fault starts from a copy of it.
        self._all_x: list[int] = [X] * n
        for li in self.topo_idx:
            self._all_x[li] = _evaluate(self._gate[li], self._all_x)

        self.good: list[int] = list(self._all_x)
        self.bad: list[int] = list(self._all_x)
        self.assignment: dict[int, int] = {}
        self.trail: list[tuple[int, int, int]] = []
        # per assign: (trail length, observable D count, input line)
        self._marks: list[tuple[int, int, int]] = []
        self._d_count = 0          # observable lines carrying D
        # level buckets: one pending list per level, shared by
        # reference from every line of that level
        buckets = [[] for _ in range(max(self.level, default=0) + 1)]
        self._buckets: list[list[int]] = buckets
        self._bucket_of = [buckets[lv] for lv in self.level]
        self._queued = bytearray(n)
        # deepest level an implication from each line can reach
        self._reach = list(self.level)
        for li in reversed(self.topo_idx):
            for si in self.fanin[li]:
                if self._reach[li] > self._reach[si]:
                    self._reach[si] = self._reach[li]
        self._in_cone = bytearray(n)
        self._topo_pos = [0] * n
        for pos, li in enumerate(self.topo_idx):
            self._topo_pos[li] = pos
        self._cone_cache: dict[int, list[int]] = {}

        # fault-specific state, set by _retarget
        self.fault_idx = -1
        self.stuck = 0
        self.cone_idx: list[int] = []
        self._d_scan: list[int] = []   # fault site + cone: may carry D

    def _fanout_cone(self, root: int) -> list[int]:
        """``root`` (if it is a gate) and every gate in its transitive
        fanout, in topological order."""
        fanout = self.fanout
        seen = {root}
        stack = [root]
        while stack:
            for si in fanout[stack.pop()]:
                if si not in seen:
                    seen.add(si)
                    stack.append(si)
        if self.op[root] == -1:
            seen.discard(root)
        return sorted(seen, key=self._topo_pos.__getitem__)

    def _retarget(self, fault: Fault) -> None:
        """Point the engine at a new fault and reset the machines."""
        try:
            fault_idx = self.index[fault.line]
        except KeyError:
            raise AtpgError(
                f"fault line {fault.line!r} not in circuit") from None
        in_cone = self._in_cone
        for li in self._d_scan:
            in_cone[li] = 0
        self.fault_idx = fault_idx
        self.stuck = stuck = fault.stuck_at
        cone = self._cone_cache.get(fault_idx)
        if cone is None:
            cone = self._fanout_cone(fault_idx)
            self._cone_cache[fault_idx] = cone
        self.cone_idx = cone
        # a gate fault heads its own cone; a source fault is not in it
        d_scan = cone if cone and cone[0] == fault_idx \
            else [fault_idx, *cone]
        self._d_scan = d_scan

        self.assignment = {}
        self.trail.clear()
        self._marks.clear()
        good, bad = self.good, self.bad
        good[:] = self._all_x
        bad[:] = self._all_x
        # Outside the cone the faulty machine equals the good one; only
        # the fault site and its cone see the stuck value.
        bad[fault_idx] = stuck
        gates = self._gate
        for li in d_scan:
            in_cone[li] = 1
            if li != fault_idx:
                bad[li] = _evaluate(gates[li], bad)
        self._d_count = sum(
            1 for li in self.obs_set
            if good[li] != X and bad[li] != X and good[li] != bad[li])

    # -- implication ---------------------------------------------------- #

    def _propagate(self, seed: int) -> None:
        """Imply the change on ``seed`` forward, level by level.

        Assignments only refine an X input, and three-valued
        implication is monotone, so every change is X -> binary: a line
        whose value is binary in a machine is final there and is
        neither queued nor re-evaluated.  Lines outside the fault cone
        take the good value in the faulty machine without a second
        evaluation.  Every changed line is pushed on the trail.
        """
        good, bad = self.good, self.bad
        gates, fanout = self._gate, self.fanout
        bucket_of, queued = self._bucket_of, self._queued
        in_cone, is_obs = self._in_cone, self._is_obs
        push = self.trail.append
        d_count = self._d_count
        for si in fanout[seed]:
            if good[si] == X or bad[si] == X:
                queued[si] = 1
                bucket_of[si].append(si)
        for bucket in self._buckets[self.level[seed] + 1:
                                    self._reach[seed] + 1]:
            if not bucket:
                continue
            for li in bucket:
                queued[li] = 0
                cv, controlled, uncontrolled, fn, fanin = gates[li]
                old_g = good[li]
                g = old_g
                if g == X:
                    if fn is None:
                        g = uncontrolled
                        for i in fanin:
                            v = good[i]
                            if v == cv:
                                g = controlled
                                break
                            if v == X:
                                g = X
                    else:
                        g = fn(good, fanin)
                old_b = bad[li]
                if not in_cone[li]:
                    b = g
                elif old_b != X:
                    b = old_b
                elif fn is None:
                    b = uncontrolled
                    for i in fanin:
                        v = bad[i]
                        if v == cv:
                            b = controlled
                            break
                        if v == X:
                            b = X
                else:
                    b = fn(bad, fanin)
                if g == old_g and b == old_b:
                    continue
                push((li, old_g, old_b))
                good[li] = g
                bad[li] = b
                if is_obs[li] and g != b and g != X and b != X:
                    d_count += 1
                for si in fanout[li]:
                    if not queued[si] and (good[si] == X or bad[si] == X):
                        queued[si] = 1
                        bucket_of[si].append(si)
            bucket.clear()
        self._d_count = d_count

    def set_input(self, li: int, value: int) -> None:
        """Set the X input ``li`` to binary ``value`` and imply it."""
        good, bad = self.good, self.bad
        old_g = good[li]
        if old_g != X or value == X:
            raise AtpgError(
                f"input {self.names[li]!r} is not an X line set to 0/1")
        old_b = bad[li]
        b = old_b if li == self.fault_idx else value
        self.trail.append((li, old_g, old_b))
        good[li] = value
        bad[li] = b
        if self._is_obs[li] and value != b:
            self._d_count += 1
        self._propagate(li)

    def assign(self, li: int, value: int) -> None:
        mark = (len(self.trail), self._d_count, li)
        self.set_input(li, value)
        self._marks.append(mark)
        self.assignment[li] = value

    def unassign(self, li: int) -> None:
        if not self._marks or self._marks[-1][2] != li:
            raise AtpgError("unassign must undo the most recent assign")
        mark, self._d_count, _li = self._marks.pop()
        del self.assignment[li]
        good, bad, trail = self.good, self.bad, self.trail
        for line, g, b in reversed(trail[mark:]):
            good[line] = g
            bad[line] = b
        del trail[mark:]

    # -- state queries ---------------------------------------------------- #

    def is_d(self, li: int) -> bool:
        g = self.good[li]
        return g != X and self.bad[li] != X and g != self.bad[li]

    def detected(self) -> bool:
        return self._d_count > 0

    def activated(self) -> bool:
        return self.is_d(self.fault_idx)

    def activation_possible(self) -> bool:
        return self.good[self.fault_idx] != self.stuck

    def d_frontier(self) -> list[int]:
        """Gates (inside the fault cone) with a D input and an
        undetermined output, in topological order."""
        # D lives only on the fault site and inside its cone; collect
        # the undetermined fanouts of every D line.
        good, bad, fanout = self.good, self.bad, self.fanout
        frontier: set[int] = set()
        for li in self._d_scan:
            g = good[li]
            b = bad[li]
            if g != b and g != X and b != X:
                for si in fanout[li]:
                    if good[si] == X or bad[si] == X:
                        frontier.add(si)
        return sorted(frontier, key=self._topo_pos.__getitem__)

    def has_x_path(self, li: int) -> bool:
        is_obs, fanout = self._is_obs, self.fanout
        seen: set[int] = set()
        stack = [li]
        good, bad = self.good, self.bad
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if is_obs[cur]:
                return True
            for si in fanout[cur]:
                if good[si] == X or bad[si] == X:
                    stack.append(si)
        return False


def _backtrace(machine: PodemEngine, li: int, value: int
               ) -> tuple[int, int] | None:
    """Map an internal objective to a controllable-input assignment."""
    good = machine.good
    current, target = li, value
    for _ in range(len(machine.names) + 2):
        if current in machine.input_set:
            return current, target
        op = machine.op[current]
        if op == -1:
            return None  # uncontrollable source (should not occur here)
        fanin = machine.fanin[current]
        x_inputs = [s for s in fanin if good[s] == X]
        if not x_inputs:
            return None
        if op == _NOT:
            current, target = fanin[0], 1 - target
            continue
        if op == _BUF:
            current, target = fanin[0], target
            continue
        if op == _XOR or op == _XNOR:
            known = 0
            for s in fanin:
                if good[s] != X:
                    known ^= good[s]
            parity = target if op == _XOR else 1 - target
            current, target = x_inputs[0], parity ^ known
            continue
        if op == _MUX:
            current, target = x_inputs[0], 0
            continue
        cv = _CV.get(op)
        if cv is None:
            return None
        if target == _RESPONSE[op]:
            # one controlling input suffices: easiest to set to cv
            cc = machine.cc1 if cv else machine.cc0
            current = min(x_inputs, key=cc.__getitem__)
            target = cv
        else:
            # all inputs must be non-controlling: hardest first
            cc = machine.cc0 if cv else machine.cc1
            current = max(x_inputs, key=cc.__getitem__)
            target = 1 - cv
    raise AtpgError("backtrace did not terminate")  # pragma: no cover


def _objective(machine: PodemEngine) -> tuple[int, int] | None:
    """Next (line index, value) objective, or None when hopeless."""
    if not machine.activated():
        if not machine.activation_possible():
            return None
        return machine.fault_idx, 1 - machine.stuck
    good = machine.good
    frontier = machine.d_frontier()
    frontier.sort(key=machine.co.__getitem__)
    for gate_idx in frontier:
        if not machine.has_x_path(gate_idx):
            continue
        op = machine.op[gate_idx]
        cv = _CV.get(op)
        for si in machine.fanin[gate_idx]:
            if good[si] == X:
                return si, (1 - cv) if cv is not None else 0
    return None


def generate_test(circuit: Circuit, fault: Fault,
                  max_backtracks: int = 100,
                  max_decisions: int = 20_000,
                  engine: PodemEngine | None = None) -> PodemResult:
    """Run PODEM for one fault on the combinational test view.

    Returns a :class:`PodemResult`; "untestable" means the whole decision
    tree was exhausted (the fault is provably redundant at this netlist),
    "aborted" means the backtrack or decision budget ran out first.

    Pass a shared :class:`PodemEngine` when generating tests for many
    faults of the same circuit — it amortises the netlist indexing and
    SCOAP computation.
    """
    machine = engine if engine is not None else PodemEngine(circuit)
    if machine.circuit is not circuit:
        raise AtpgError("engine belongs to a different circuit")
    machine._retarget(fault)
    # decision stack entries: (input index, value, both_tried)
    stack: list[tuple[int, int, bool]] = []
    backtracks = 0
    decisions = 0

    def result(status: str) -> PodemResult:
        assignment = {machine.names[i]: v
                      for i, v in machine.assignment.items()}
        return PodemResult(status, assignment if status == "detected"
                           else {}, backtracks, decisions)

    while True:
        if machine.detected():
            return result("detected")
        objective = _objective(machine)
        decision = None
        if objective is not None:
            decision = _backtrace(machine, *objective)
        if decision is not None:
            li, value = decision
            decisions += 1
            if decisions > max_decisions:
                return result("aborted")
            machine.assign(li, value)
            stack.append((li, value, False))
            continue
        # No way forward: chronological backtracking.
        while stack:
            li, value, both = stack.pop()
            machine.unassign(li)
            if not both:
                backtracks += 1
                if backtracks > max_backtracks:
                    return result("aborted")
                machine.assign(li, 1 - value)
                stack.append((li, 1 - value, True))
                break
        else:
            return result("untestable")


def fill_dont_cares(circuit: Circuit, assignment: Mapping[str, int],
                    fill_value_fn) -> dict[str, int]:
    """Complete a partial PODEM assignment over all controllable inputs.

    ``fill_value_fn(line)`` supplies the value for unassigned lines
    (random fill, zero fill, or the repeat-last-vector fill ATOM uses).
    """
    values = dict(assignment)
    for line in comb_input_lines(circuit):
        if line not in values:
            values[line] = fill_value_fn(line)
    return values
