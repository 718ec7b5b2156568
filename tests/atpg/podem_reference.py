"""Reference PODEM implication: the oracle for the incremental engine.

This is the original implication of :class:`repro.atpg.podem.PodemEngine`
kept verbatim as a test-side oracle: an ``if``-chain three-valued
evaluator, a heap-ordered event queue that evaluates both machines on
every line, a backtrack that re-propagates X instead of undoing, and a
``detected`` that scans every observable line.  It is deliberately slow
and obviously correct.

* :func:`reference_values` implies the engine's current assignment from
  scratch (the original ``_full_imply``), for comparing the incremental
  state after every step.
* :class:`ReferencePodemEngine` runs the unchanged decision procedure
  (``generate_test``) on top of the original implication, for
  comparing whole PODEM results.
"""

from __future__ import annotations

import heapq

from repro.atpg.faults import Fault
from repro.atpg.podem import (
    _AND,
    _BUF,
    _C0,
    _MUX,
    _NAND,
    _NOR,
    _NOT,
    _OR,
    _XNOR,
    _XOR,
    PodemEngine,
)
from repro.errors import AtpgError
from repro.netlist.gates import X


def _eval_op(op: int, values: list[int], fanin: tuple[int, ...]) -> int:
    """Three-valued evaluation over the index machine's value list."""
    if op == _NAND or op == _AND:
        saw_x = False
        for i in fanin:
            v = values[i]
            if v == 0:
                return 1 if op == _NAND else 0
            if v == X:
                saw_x = True
        if saw_x:
            return X
        return 0 if op == _NAND else 1
    if op == _NOR or op == _OR:
        saw_x = False
        for i in fanin:
            v = values[i]
            if v == 1:
                return 0 if op == _NOR else 1
            if v == X:
                saw_x = True
        if saw_x:
            return X
        return 1 if op == _NOR else 0
    if op == _NOT:
        v = values[fanin[0]]
        return X if v == X else 1 - v
    if op == _BUF:
        return values[fanin[0]]
    if op == _XOR or op == _XNOR:
        parity = 0
        for i in fanin:
            v = values[i]
            if v == X:
                return X
            parity ^= v
        return parity if op == _XOR else 1 - parity
    if op == _MUX:
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
    if op == _C0:
        return 0
    return 1


def _full_imply(engine: PodemEngine, good: list[int],
                bad: list[int]) -> None:
    for li in engine.topo_idx:
        good[li] = _eval_op(engine.op[li], good, engine.fanin[li])
        if li == engine.fault_idx:
            bad[li] = engine.stuck
        else:
            bad[li] = _eval_op(engine.op[li], bad, engine.fanin[li])


def reference_values(engine: PodemEngine) -> tuple[list[int], list[int]]:
    """Good and faulty values of the engine's assignment, from scratch."""
    n = len(engine.names)
    good = [X] * n
    bad = [X] * n
    if engine.op[engine.fault_idx] == -1:
        bad[engine.fault_idx] = engine.stuck
    for li, value in engine.assignment.items():
        good[li] = value
        bad[li] = engine.stuck if li == engine.fault_idx else value
    _full_imply(engine, good, bad)
    return good, bad


class ReferencePodemEngine(PodemEngine):
    """PODEM engine running the original, non-incremental implication.

    The two machines live in their own ``ref_good``/``ref_bad`` lists;
    every change is mirrored into the engine's pair-code ``val`` list,
    which the shared decision procedure reads.
    """

    def _retarget(self, fault: Fault) -> None:
        try:
            self.fault_idx = self.index[fault.line]
        except KeyError:
            raise AtpgError(
                f"fault line {fault.line!r} not in circuit") from None
        self.stuck = fault.stuck_at
        self.assignment = {}
        n = len(self.names)
        self.ref_good = good = [X] * n
        self.ref_bad = bad = [X] * n
        if self.op[self.fault_idx] == -1:
            bad[self.fault_idx] = self.stuck
        _full_imply(self, good, bad)
        self.val[:] = [3 * g + b for g, b in zip(good, bad)]

    def _set(self, li: int, g: int, b: int) -> None:
        self.ref_good[li] = g
        self.ref_bad[li] = b
        self.val[li] = 3 * g + b

    def _propagate(self, seed: int) -> None:
        good, bad = self.ref_good, self.ref_bad
        level = self.level
        pending: list[tuple[int, int]] = []
        queued: set[int] = set()
        for si in self.fanout[seed]:
            queued.add(si)
            heapq.heappush(pending, (level[si], si))
        while pending:
            _lv, li = heapq.heappop(pending)
            queued.discard(li)
            g = _eval_op(self.op[li], good, self.fanin[li])
            if li == self.fault_idx:
                b = self.stuck
            else:
                b = _eval_op(self.op[li], bad, self.fanin[li])
            if g != good[li] or b != bad[li]:
                self._set(li, g, b)
                for si in self.fanout[li]:
                    if si not in queued:
                        queued.add(si)
                        heapq.heappush(pending, (level[si], si))

    def set_input(self, li: int, value: int) -> None:
        self._set(li, value,
                  self.stuck if li == self.fault_idx else value)
        self._propagate(li)

    def assign(self, li: int, value: int) -> None:
        self.assignment[li] = value
        self.set_input(li, value)

    def unassign(self, li: int) -> None:
        del self.assignment[li]
        self.set_input(li, X)

    def detected(self) -> bool:
        return any(self.is_d(o) for o in self.obs_idx)

    def d_frontier(self) -> list[int]:
        # D lives only in the fault's fanout cone, so scanning every
        # gate finds the same frontier as scanning the cone.
        frontier = []
        good, bad = self.good, self.bad
        for li in self.topo_idx:
            if good[li] != X and bad[li] != X:
                continue
            for si in self.fanin[li]:
                if self.is_d(si):
                    frontier.append(li)
                    break
        return frontier

    def has_x_path(self, li: int) -> bool:
        obs = self.obs_set
        seen: set[int] = set()
        stack = [li]
        good, bad = self.good, self.bad
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if cur in obs:
                return True
            for si in self.fanout[cur]:
                if good[si] == X or bad[si] == X:
                    stack.append(si)
        return False
