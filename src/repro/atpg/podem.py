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
inner machine works on an integer-indexed copy of the netlist and
implies incrementally:

* **Pair codes.**  Both machines live in one list: line ``i`` holds
  ``3 * good + bad`` with ``X = 2``, so ``0..8`` covers every pair and
  the D values are codes 3 (``1/0``) and 1 (``0/1``).  A gate is
  evaluated for both machines at once by walking its inputs through a
  lookup table (``acc = table[acc + code]``): the AND/OR/XOR families
  fold a 9x9 table and MUX2 chains three steps, and a final table maps
  the result to a code with the inversion of NAND/NOR/NOT/XNOR folded
  in.  Outside the fault's fanout cone the two halves agree by
  construction; at the fault site a forced final table pins the faulty
  half to the stuck value.
* **Trail undo.**  Every line an assignment changes is pushed on a trail
  as ``(line, old code)``; a backtrack pops the trail back to the
  assignment's mark instead of re-implying X.  Because decisions only
  refine X inputs and three-valued logic is monotone, implication only
  ever turns an X half into 0/1, so a line with both halves binary is
  final.
* **Level buckets.**  Events queue into one list per logic level (a
  ``bytearray`` dedups them) instead of a heap.  An incremental count
  of observable D lines answers :meth:`PodemEngine.detected`, and a live
  list of D lines (truncated on undo) feeds the D-frontier.

The decision procedure (objective, backtrace, SCOAP guidance) sees the
same values after every step as a from-scratch implication would, so
verdicts, backtrack and decision counts and assignments do not depend on
it.  Backtrace walks per-gate fanin orders pre-sorted by SCOAP
controllability (stable, so ties resolve as ``min``/``max`` would).  All
public interfaces speak line names.
"""

from __future__ import annotations

import dataclasses
import itertools

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


# -- pair codes ---------------------------------------------------------- #

_XX = 3 * X + X                  # both machines unknown
#: codes with an X half: the line may still change
_OPEN = tuple(int(c // 3 == X or c % 3 == X) for c in range(9))
#: every code: forcing the fault site may overturn binary values
_ANY = (1,) * 9
_D, _DBAR = 3 * 1 + 0, 3 * 0 + 1


def _and3(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return X if X in (a, b) else 1


def _or3(a: int, b: int) -> int:
    if a == 1 or b == 1:
        return 1
    return X if X in (a, b) else 0


def _xor3(a: int, b: int) -> int:
    return X if X in (a, b) else a ^ b


def _inv3(a: int) -> int:
    return X if a == X else 1 - a


def _mux3(sel: int, d0: int, d1: int) -> int:
    if sel == 0:
        return d0
    if sel == 1:
        return d1
    return d0 if d0 == d1 != X else X


def _fold_table(fn) -> list[int]:
    """``table[9 * a + v]`` = 9 x code of ``fn`` applied per machine."""
    return [9 * (3 * fn(a // 3, v // 3) + fn(a % 3, v % 3))
            for a in range(9) for v in range(9)]


def _mux_table() -> list[int]:
    """Three-step MUX2 walk: select, then d0, then d1.

    States (each x 9): start 0, after ``sel`` 1..9, after ``d0``
    10..90; the ``d1`` step lands on 9 x the output code.
    """
    table = [0] * (9 * 91)
    for sel, d0, d1 in itertools.product(range(9), repeat=3):
        after_sel = 1 + sel
        after_d0 = 10 + 9 * sel + d0
        table[sel] = 9 * after_sel
        table[9 * after_sel + d0] = 9 * after_d0
        table[9 * after_d0 + d1] = 9 * (
            3 * _mux3(sel // 3, d0 // 3, d1 // 3)
            + _mux3(sel % 3, d0 % 3, d1 % 3))
    return table


def _final_table(invert: bool, stuck: int | None = None) -> list[int]:
    """``final[9 * code]`` = the gate output code, optionally inverted
    and with the faulty half forced to ``stuck``."""
    final = [0] * 81
    for c in range(9):
        g, b = c // 3, c % 3
        if invert:
            g, b = _inv3(g), _inv3(b)
        final[9 * c] = 3 * g + (b if stuck is None else stuck)
    return final


_AND_T, _OR_T, _XOR_T = (_fold_table(fn) for fn in (_and3, _or3, _xor3))
_PLAIN, _INVERT = _final_table(False), _final_table(True)

#: per opcode: (start state, step table, final table).  NOT and BUF are
#: one-input NAND and AND; constants have no inputs and start on their
#: value.
_TABLES: dict[int, tuple[int, list[int], list[int]]] = {
    _AND: (9 * 4, _AND_T, _PLAIN), _NAND: (9 * 4, _AND_T, _INVERT),
    _OR: (0, _OR_T, _PLAIN), _NOR: (0, _OR_T, _INVERT),
    _NOT: (9 * 4, _AND_T, _INVERT), _BUF: (9 * 4, _AND_T, _PLAIN),
    _XOR: (0, _XOR_T, _PLAIN), _XNOR: (0, _XOR_T, _INVERT),
    _MUX: (0, _mux_table(), _PLAIN),
    _C0: (0, _AND_T, _PLAIN), _C1: (9 * 4, _AND_T, _PLAIN),
}
#: per opcode: the fault site's final tables for stuck-at-0 and -1
_FORCED = {op: (_final_table(final is _INVERT, 0),
                _final_table(final is _INVERT, 1))
           for op, (_start, _table, final) in _TABLES.items()}


def _evaluate(gate: tuple, val: list[int]) -> int:
    """Pair-code evaluation of one compiled gate over ``val``."""
    acc, table, final, fanin = gate
    for i in fanin:
        acc = table[acc + val[i]]
    return final[acc]


class PodemEngine:
    """Reusable PODEM engine over an integer-indexed netlist.

    The expensive circuit-wide structures — index maps, compiled gates,
    fanout tables, level buckets, SCOAP measures and the all-X state of
    both machines — are built **once**; each fault copies the all-X state,
    forces the fault site and implies the stuck value forward.  Use one
    engine per circuit when generating many tests
    (:func:`repro.atpg.generate.generate_tests` does).  The engine
    records the circuit's structure version; :func:`generate_test`
    refuses it once the circuit has been mutated.

    ``val`` holds one pair code ``3 * good + bad`` per line; ``good``
    and ``bad`` are decoded read-only views.  Implication is
    incremental: every changed line is recorded on a trail as
    ``(line, old code)``, :meth:`assign` marks the trail and
    :meth:`unassign` pops back to the mark.  PODEM backtracks
    chronologically, so :meth:`unassign` must undo the most recent
    :meth:`assign`.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.version = circuit.version

        names = list(circuit.lines())
        self.index = {name: i for i, name in enumerate(names)}
        self.names = names
        n = len(names)

        # SCOAP testability guides backtrace (easiest/hardest choices)
        # and D-frontier selection (most observable propagation path).
        scoap = compute_scoap(circuit)
        self.cc0 = cc0 = [scoap.cc0.get(name, 1) for name in names]
        self.cc1 = cc1 = [scoap.cc1.get(name, 1) for name in names]
        self.co = [scoap.co.get(name, 0) for name in names]

        # per-line gate description (-1 op for sources / flop outputs)
        self.op: list[int] = [-1] * n
        self.fanin: list[tuple[int, ...]] = [()] * n
        self.level: list[int] = [0] * n
        self.fanout: list[list[int]] = [[] for _ in range(n)]
        self.topo_idx: list[int] = []
        # compiled gates (start, table, final, fanin); None for sources
        self._gate: list[tuple | None] = [None] * n
        # AND-family backtrace orders: fanin by ascending cost of the
        # controlling value (easiest first) and by descending cost of
        # the non-controlling value (hardest first); stable sorts keep
        # fanin order on ties, as min/max over the fanin would.
        self._easiest: list[tuple[int, ...]] = [()] * n
        self._hardest: list[tuple[int, ...]] = [()] * n

        for line in circuit.topo_order():
            li = self.index[line]
            gate = circuit.gates[line]
            op = _OPCODE[gate.gtype]
            self.op[li] = op
            fin = tuple(self.index[s] for s in gate.inputs)
            self.fanin[li] = fin
            self._gate[li] = (*_TABLES[op], fin)
            self.level[li] = circuit.level_of(line)
            self.topo_idx.append(li)
            for si in fin:
                self.fanout[si].append(li)
            cv = _CV.get(op)
            if cv is not None:
                easy = cc1 if cv else cc0
                hard = cc0 if cv else cc1
                self._easiest[li] = tuple(sorted(fin, key=easy.__getitem__))
                self._hardest[li] = tuple(
                    sorted(fin, key=lambda s: -hard[s]))

        self.input_idx = [self.index[s] for s in comb_input_lines(circuit)]
        self.input_set = set(self.input_idx)
        self.obs_idx = [self.index[s] for s in observable_lines(circuit)]
        self.obs_set = set(self.obs_idx)
        self._is_obs = bytearray(n)
        for li in self.obs_set:
            self._is_obs[li] = 1

        # Both machines with every input at X (constants still imply);
        # each fault starts from a copy of it.
        self._all_x: list[int] = [_XX] * n
        for li in self.topo_idx:
            self._all_x[li] = _evaluate(self._gate[li], self._all_x)

        self.val: list[int] = list(self._all_x)
        self.assignment: dict[int, int] = {}
        self.trail: list[tuple[int, int]] = []
        # per assign: (trail length, observable D count, D lines, input)
        self._marks: list[tuple[int, int, int, int]] = []
        self._d_count = 0          # observable lines carrying D
        self._d_lines: list[int] = []   # every line carrying D
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
        self._topo_pos = [0] * n
        for pos, li in enumerate(self.topo_idx):
            self._topo_pos[li] = pos
        # has_x_path visit stamps
        self._seen = [0] * n
        self._epoch = 0

        # fault-specific state, set by _retarget
        self.fault_idx = -1
        self.stuck = 0
        self._site_gate: tuple | None = None   # unforced fault-site gate

    @property
    def good(self) -> list[int]:
        """Good-machine values (decoded copy of ``val``)."""
        return [c // 3 for c in self.val]

    @property
    def bad(self) -> list[int]:
        """Faulty-machine values (decoded copy of ``val``)."""
        return [c % 3 for c in self.val]

    def _retarget(self, fault: Fault) -> None:
        """Point the engine at a new fault and reset the machines."""
        try:
            fault_idx = self.index[fault.line]
        except KeyError:
            raise AtpgError(
                f"fault line {fault.line!r} not in circuit") from None
        gates = self._gate
        if self._site_gate is not None:
            gates[self.fault_idx] = self._site_gate
        self.fault_idx = fault_idx
        self.stuck = stuck = fault.stuck_at
        self._site_gate = site = gates[fault_idx]
        if site is not None:
            start, table, _final, fanin = site
            gates[fault_idx] = (start, table,
                                _FORCED[self.op[fault_idx]][stuck], fanin)

        self.assignment = {}
        self.trail.clear()
        self._marks.clear()
        self._d_lines.clear()
        self._d_count = 0
        val = self.val
        val[:] = self._all_x
        # Force the faulty half of the site and imply it through the
        # cone; outside the cone both halves stay equal.  The site may
        # be binary already (constant logic), and flipping it is not
        # monotone, so every fanout of a changed line is re-evaluated.
        code = val[fault_idx] - val[fault_idx] % 3 + stuck
        val[fault_idx] = code
        if code == _D or code == _DBAR:
            self._d_lines.append(fault_idx)
            self._d_count = self._is_obs[fault_idx]
        self._propagate(fault_idx, _ANY)
        self.trail.clear()

    # -- implication ---------------------------------------------------- #

    def _propagate(self, seed: int, open_: tuple[int, ...] = _OPEN
                   ) -> None:
        """Imply the change on ``seed`` forward, level by level.

        Assignments only refine an X input, and three-valued
        implication is monotone, so every change turns an X half
        binary: a line with both halves binary is final and is neither
        queued nor re-evaluated (``open_`` marks the codes that are
        queued).  Every changed line is pushed on the trail; every line
        that becomes D joins the D-line list.
        """
        val = self.val
        gates, fanout = self._gate, self.fanout
        bucket_of, queued = self._bucket_of, self._queued
        is_obs = self._is_obs
        push = self.trail.append
        d_lines = self._d_lines
        d_count = self._d_count
        for si in fanout[seed]:
            if open_[val[si]]:
                queued[si] = 1
                bucket_of[si].append(si)
        for bucket in self._buckets[self.level[seed] + 1:
                                    self._reach[seed] + 1]:
            if not bucket:
                continue
            for li in bucket:
                queued[li] = 0
                acc, table, final, fanin = gates[li]
                for i in fanin:
                    acc = table[acc + val[i]]
                code = final[acc]
                old = val[li]
                if code == old:
                    continue
                push((li, old))
                val[li] = code
                if code == _D or code == _DBAR:
                    d_lines.append(li)
                    d_count += is_obs[li]
                for si in fanout[li]:
                    if not queued[si] and open_[val[si]]:
                        queued[si] = 1
                        bucket_of[si].append(si)
            bucket.clear()
        self._d_count = d_count

    def set_input(self, li: int, value: int) -> None:
        """Set the X input ``li`` to binary ``value`` and imply it."""
        old = self.val[li]
        if old // 3 != X or value == X:
            raise AtpgError(
                f"input {self.names[li]!r} is not an X line set to 0/1")
        code = 3 * value + (self.stuck if li == self.fault_idx else value)
        self.trail.append((li, old))
        self.val[li] = code
        if code == _D or code == _DBAR:
            self._d_lines.append(li)
            self._d_count += self._is_obs[li]
        self._propagate(li)

    def assign(self, li: int, value: int) -> None:
        mark = (len(self.trail), self._d_count, len(self._d_lines), li)
        self.set_input(li, value)
        self._marks.append(mark)
        self.assignment[li] = value

    def unassign(self, li: int) -> None:
        if not self._marks or self._marks[-1][3] != li:
            raise AtpgError("unassign must undo the most recent assign")
        mark, self._d_count, n_d, _li = self._marks.pop()
        del self.assignment[li]
        del self._d_lines[n_d:]
        val, trail = self.val, self.trail
        for line, old in reversed(trail[mark:]):
            val[line] = old
        del trail[mark:]

    # -- state queries ---------------------------------------------------- #

    def is_d(self, li: int) -> bool:
        code = self.val[li]
        return code == _D or code == _DBAR

    def detected(self) -> bool:
        return self._d_count > 0

    def activated(self) -> bool:
        return self.is_d(self.fault_idx)

    def activation_possible(self) -> bool:
        return self.val[self.fault_idx] // 3 != self.stuck

    def d_frontier(self) -> list[int]:
        """Gates (inside the fault cone) with a D input and an
        undetermined output, in topological order."""
        val, fanout, open_ = self.val, self.fanout, _OPEN
        frontier = {si for li in self._d_lines for si in fanout[li]
                    if open_[val[si]]}
        return sorted(frontier, key=self._topo_pos.__getitem__)

    def has_x_path(self, li: int) -> bool:
        is_obs, fanout, val, open_ = self._is_obs, self.fanout, self.val, _OPEN
        self._epoch += 1
        epoch, seen = self._epoch, self._seen
        stack = [li]
        while stack:
            cur = stack.pop()
            if seen[cur] == epoch:
                continue
            seen[cur] = epoch
            if is_obs[cur]:
                return True
            for si in fanout[cur]:
                if open_[val[si]]:
                    stack.append(si)
        return False


def _backtrace(machine: PodemEngine, li: int, value: int
               ) -> tuple[int, int] | None:
    """Map an internal objective to a controllable-input assignment."""
    val = machine.val
    current, target = li, value
    for _ in range(len(machine.names) + 2):
        if current in machine.input_set:
            return current, target
        op = machine.op[current]
        if op == -1:
            return None  # uncontrollable source (should not occur here)
        if op <= _NOR:
            cv = _CV[op]
            if target == _RESPONSE[op]:
                # one controlling input suffices: easiest to set to cv
                order = machine._easiest[current]
                target = cv
            else:
                # all inputs must be non-controlling: hardest first
                order = machine._hardest[current]
                target = 1 - cv
            for s in order:
                if val[s] // 3 == X:
                    current = s
                    break
            else:
                return None
            continue
        fanin = machine.fanin[current]
        x_inputs = [s for s in fanin if val[s] // 3 == X]
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
                if val[s] // 3 != X:
                    known ^= val[s] // 3
            parity = target if op == _XOR else 1 - target
            current, target = x_inputs[0], parity ^ known
            continue
        if op == _MUX:
            current, target = x_inputs[0], 0
            continue
        return None
    raise AtpgError("backtrace did not terminate")  # pragma: no cover


def _objective(machine: PodemEngine) -> tuple[int, int] | None:
    """Next (line index, value) objective, or None when hopeless."""
    if not machine.activated():
        if not machine.activation_possible():
            return None
        return machine.fault_idx, 1 - machine.stuck
    val = machine.val
    frontier = machine.d_frontier()
    frontier.sort(key=machine.co.__getitem__)
    for gate_idx in frontier:
        if not machine.has_x_path(gate_idx):
            continue
        cv = _CV.get(machine.op[gate_idx])
        for si in machine.fanin[gate_idx]:
            if val[si] // 3 == X:
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
    SCOAP computation.  An engine built before the circuit was last
    mutated is rejected with :class:`~repro.errors.AtpgError`.
    """
    machine = engine if engine is not None else PodemEngine(circuit)
    if machine.circuit is not circuit:
        raise AtpgError("engine belongs to a different circuit")
    if machine.version != circuit.version:
        raise AtpgError("engine is stale: the circuit changed after the "
                        "engine was built")
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
