"""Incremental SAT redundancy prover for single stuck-at faults.

PODEM can only call a fault untestable by exhausting its decision tree;
on a hard redundancy it runs out of backtracks first and aborts.  This
module settles such faults with the Boolean-satisfiability formulation
of Larrabee ("Test pattern generation using Boolean satisfiability",
IEEE TCAD 1992) and a small pure-Python CDCL solver.

**Encoding** (over :class:`~repro.atpg.podem.PodemEngine`'s index
netlist, built once per prover):

* *Good machine*: one variable per line and Tseitin clauses per gate,
  encoded once and never retracted.
* *Per fault*: a faulty copy of the fault's fanout cone (only lines that
  can reach an observable line), one D variable per cone line and
  Larrabee's D-chain: ``d[x] -> good[x] != faulty[x]``, and for a
  non-observable ``x``, ``d[x] -> OR d[y]`` over its cone fanouts.
  ``d[site]``, the faulty site's stuck value and the activation value are
  unit clauses.  A model therefore carries a difference along a path
  from the site to an observable line: it is a test.
* *Guards*: every per-fault clause carries the negation of a fresh
  selector variable.  The selector is assumed true (decision level 1)
  while the fault is solved and killed with a unit clause afterwards.
  A clause learned from a guarded clause inherits the guard (the
  selector is a decision, so resolution never removes it) and dies with
  the fault; clauses learned from the good machine alone stay and help
  every later fault.  Killed clauses are satisfied at level 0 and are
  dropped from the watch lists right away.  Faulty and D variables
  are fixed per line and reused by every fault.
* *Good-machine constants*: while the prover is built, before any
  fault is encoded, a fixed seeded batch of :data:`CONSTANT_PATTERNS`
  random patterns is simulated (never the ATPG RNG).  Walking the lines
  in topological order, each line whose word is constant and whose
  value level 0 does not already imply gets a selector-guarded,
  good-machine-only check that it never takes the other value, decided
  over the line's support inputs.  Every UNSAT answer is committed as a
  level-0 unit and propagated, so each later proof and every per-fault
  template is simplified against the constants.  After that, level 0
  only changes by selector kills.

**Structural fast path** (:meth:`RedundancyProver.settles`, run first by
:meth:`~RedundancyProver.prove` and by ``generate_tests`` ahead of
PODEM): a fault is redundant without a miter when its site reaches no
observable line or when its activation value is false at level 0 (a
stuck-at on a constant line).  Otherwise an *implication stage*
(SOCRATES, Schulz, Trischler and Sarfert, IEEE TCAD 1988; FIRE, Iyer
and Abramovici, IEEE TCAD 1996) assumes values every test of the fault
must produce in the good machine and propagates them at decision
level 1:

1. the activation value at the site;
2. an event-driven walk from the site then marks the lines that *may
   differ*: in topological order it visits only lines with a fanin
   that may differ and evaluates their faulty value in three-valued
   logic, reading the stuck value at the site, the faulty value of a
   fanin that may differ and the good value of any other.  A line may
   differ unless both its values are binary and equal, or it is a
   MUX2 whose select cannot differ, has a binary good value and
   selects a data line that cannot differ;
3. every line on all paths of such lines from the site to an
   observable line (a *dominator*) differs in every test.  So a
   dominator whose faulty value is binary holds the other good value,
   and at an AND/NAND/OR/NOR dominator each fanin that cannot differ
   holds the non-controlling value; those values are assumed and the
   walk runs again, until a round adds nothing.

A level-0 constant side input that blocks a gate (a controlling value
on an AND/OR-family gate, or a MUX2 select away from the entered data
line) stops the first walk there, so paths that such constants cut
off never count.  The encoder still keeps the whole cone: a D-chain
clause names every reachable fanout of its line, and dropping one would
leave its D variable free to satisfy the chain.

Every assumed value is a necessary condition.  A test carries a
difference from the site along a path of differing lines; cut at its
first observable line, that path runs through lines the walk marks
(three-valued simulation is monotone, so what the walk sees is implied
by every test's values, a MUX2 passing a data line that does not
differ does not differ either, and fanins read past an observable line
are handled as in the cone above).  So the test makes every dominator
differ: its good value is not its faulty one, and a fanin of an
AND-family dominator that does not differ cannot hold the controlling
value, which would pin both machines.  A conflict, or a round with no
observable line that may differ, is a redundancy proof.  The stage
then backtracks to level 0 and restores the saved phases, leaving the
trail, activities and the heap as they were; it learns nothing.

**Solver**: two watched literals (binary clauses on implication lists),
first-UIP learning, VSIDS activities on a heap, Luby restarts.
Decisions are made only on the comb inputs in the fault's support.  Once
they are all assigned without conflict, propagation has evaluated both
machines on every cone line and forced false every D variable whose line
shows no difference or whose fanouts are all false.  ``d[site]`` is still
true, so the D variables left open contain a path of differences to an
observable line: the assignment is a test, and no D variable or internal
line needs a decision.  Inputs outside the support stay unassigned
(callers X-fill them).

A fault is **redundant** when the formula is unsatisfiable under the
selector, **testable** with the support-input assignment of a model, and
**unknown** once :data:`MAX_CONFLICTS` conflicts pass without a verdict.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import time
from collections import defaultdict

from repro.atpg.faults import Fault
from repro.atpg.podem import (
    _AND,
    _BUF,
    _C0,
    _C1,
    _MUX,
    _NAND,
    _NOR,
    _NOT,
    _OR,
    _TABLES,
    _XNOR,
    _XOR,
    PodemEngine,
)
from repro.errors import AtpgError
from repro.simulation.bitsim import random_input_words, simulate_packed
from repro.utils.rng import make_rng

__all__ = ["CONSTANT_PATTERNS", "MAX_CONFLICTS", "REDUNDANT", "TESTABLE",
           "UNKNOWN", "SatResult", "RedundancyProver"]

REDUNDANT, TESTABLE, UNKNOWN = "redundant", "testable", "unknown"

#: per-fault conflict budget before the prover answers "unknown"
MAX_CONFLICTS = 10_000
#: random patterns simulated to find candidate good-machine constants
CONSTANT_PATTERNS = 1024
#: seed of those patterns (a fixed stream of their own)
_CONSTANT_SEED = 0x5A7C
#: conflicts per Luby restart unit
_RESTART_UNIT = 64
_DECAY = 1 / 0.95

#: three-valued good value (X is 2), indexed by a literal's value
#: 0/1/-1
_GOOD3 = (2, 1, 0)
#: non-controlling value of the AND/OR families
_NON_CONTROLLING = {_AND: 1, _NAND: 1, _OR: 0, _NOR: 0}

_Reason = int | list[int] | None
#: guarded clause cores of one cone line: (cores of three or more
#: literals, implication groups of the two-literal cores, unit cores,
#: whether some core is empty at level 0)
_Template = tuple[list[list[int]], list[tuple[int, list[int]]], list[int],
                  bool]


@dataclasses.dataclass
class SatResult:
    """Outcome of one redundancy check.

    ``status`` is "redundant", "testable" or "unknown"; on "testable"
    ``assignment`` holds the comb-input values of a test (the inputs
    in the fault's support; the others are don't-cares).
    """

    status: str
    assignment: dict[str, int]
    conflicts: int


def _luby(i: int) -> int:
    """The ``i``-th term (from 0) of the Luby sequence 1 1 2 1 1 2 4 ..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


def _gate_clauses(op: int, y: int, ins: list[int]) -> list[list[int]]:
    """Tseitin clauses of ``y = op(ins)`` over literals (``lit ^ 1`` is
    the negation)."""
    ny = y ^ 1
    if op == _AND or op == _BUF:        # BUF is a one-input AND
        return [[ny, a] for a in ins] + [[y] + [a ^ 1 for a in ins]]
    if op == _NAND or op == _NOT:       # NOT is a one-input NAND
        return [[y, a] for a in ins] + [[ny] + [a ^ 1 for a in ins]]
    if op == _OR:
        return [[y, a ^ 1] for a in ins] + [[ny] + ins]
    if op == _NOR:
        return [[ny, a ^ 1] for a in ins] + [[y] + ins]
    if op == _XOR or op == _XNOR:
        # one clause per input combination (XOR arity is small)
        clauses = []
        for bits in itertools.product((0, 1), repeat=len(ins)):
            parity = (sum(bits) + (op == _XNOR)) & 1
            clauses.append([a ^ b for a, b in zip(ins, bits)]
                           + [y if parity else ny])
        return clauses
    if op == _MUX:                      # pins (select, d0, d1)
        s, d0, d1 = ins
        return [[s, d0 ^ 1, y], [s, d0, ny],
                [s ^ 1, d1 ^ 1, y], [s ^ 1, d1, ny],
                [d0 ^ 1, d1 ^ 1, y], [d0, d1, ny]]
    if op == _C0:
        return [[ny]]
    if op == _C1:
        return [[y]]
    raise AtpgError(f"no clauses for opcode {op}")  # pragma: no cover


def _normalize(clause: list[int]) -> list[int] | None:
    """Drop repeated literals; ``None`` for a tautology."""
    lits = list(dict.fromkeys(clause))
    present = set(lits)
    if any(lit ^ 1 in present for lit in lits):
        return None
    return lits


class RedundancyProver:
    """Incremental SAT redundancy checks for the faults of one circuit.

    Built once over a :class:`PodemEngine` (its index netlist, fanout
    lists and observable lines); :meth:`prove` then answers one fault at
    a time, keeping the good-machine clauses and every clause learned
    from them.  Like the engine, the prover refuses to answer once the
    circuit has been mutated.

    Construction also proves the good machine's constant lines and
    commits them at level 0: ``constants`` maps each line it proved to
    its value (lines level 0 already implied are not proved), after
    ``constant_proofs`` checks taking ``constant_s`` seconds.

    Variables: line ``i`` has the good variable ``i``, the faulty slot
    ``n + i`` and the D slot ``2n + i``; selectors are appended after
    ``3n``.  Literal ``2v`` is ``v`` true, ``2v + 1`` is ``v`` false.
    """

    def __init__(self, engine: PodemEngine):
        self.engine = engine
        self.circuit = engine.circuit
        self.version = engine.version
        self.names = engine.names
        self.index = engine.index
        n = self.n = len(engine.names)
        self.op = engine.op
        self.fanin = engine.fanin
        self.is_obs = engine._is_obs
        self.input_idx = engine.input_idx

        # Lines that can reach an observable line; a fault effect
        # anywhere else is invisible, so cones are cut down to these.
        reach = bytearray(engine._is_obs)
        for li in reversed(engine.topo_idx):
            if reach[li]:
                for si in engine.fanin[li]:
                    reach[si] = 1
        self.reach = reach
        self.fanout = [list(dict.fromkeys(s for s in outs if reach[s]))
                       for outs in engine.fanout]
        self.repeated = [len(set(fin)) != len(fin) for fin in engine.fanin]
        # comb-input support of every line as a bit mask over input_idx
        support = [0] * n
        for k, li in enumerate(engine.input_idx):
            support[li] = 1 << k
        for li in engine.topo_idx:
            mask = 0
            for si in engine.fanin[li]:
                mask |= support[si]
            support[li] = mask
        self.support = support

        n_vars = 3 * n
        self.n_vars = n_vars
        self.val: list[int] = [0] * (2 * n_vars)    # per literal: 1/-1/0
        # binary clauses: imp[p] lists the literals p implies
        self.imp: list[list[int]] = [[] for _ in range(2 * n_vars)]
        # watch lists of longer clauses, keyed by the watched literal:
        # permanent clauses, and the current fault's guarded clauses
        # (dropped wholesale when the fault is killed)
        self.watches: defaultdict[int, list[list[int]]] = defaultdict(list)
        self.fwatches: defaultdict[int, list[list[int]]] = defaultdict(list)
        # the current fault's two-literal cores, as implication lists
        self.fimp: defaultdict[int, list[int]] = defaultdict(list)
        self.level = [0] * n_vars
        self.reason: list[_Reason] = [None] * n_vars
        self.activity = [0.0] * n_vars
        self.phase = bytearray(n_vars)     # saved sign bit, first true
        self.seen = bytearray(n_vars)
        self.is_decision = bytearray(n_vars)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.heap: list[tuple[float, int]] = []
        self.bump = 1.0

        self._stamp = [0] * n
        self._epoch = 0
        self._sel = -1
        self._decision_vars: list[int] = []
        # guarded clause cores per line and in-cone fanin mask; once the
        # constants below are committed, before any template exists,
        # level 0 only changes by selector kills, so they never go stale
        self._templates: list[dict[int, _Template]] = [{} for _ in range(n)]

        units = []
        for li in engine.topo_idx:
            ins = [2 * si for si in engine.fanin[li]]
            for clause in _gate_clauses(engine.op[li], 2 * li, ins):
                if self.repeated[li]:
                    clause = _normalize(clause)
                    if clause is None:
                        continue
                if len(clause) == 1:
                    units.append(clause[0])
                elif len(clause) == 2:
                    self._add_binary(*clause)
                else:
                    self.watches[clause[0]].append(clause)
                    self.watches[clause[1]].append(clause)
        for lit in units:
            if self.val[lit] < 0:    # pragma: no cover - consistent logic
                raise AtpgError("good-machine encoding is inconsistent")
            if not self.val[lit]:
                self._enqueue(lit, None)
        if self._propagate() is not None:   # pragma: no cover
            raise AtpgError("good-machine encoding is inconsistent")

        started = time.perf_counter()
        self.constants: dict[int, int] = {}
        self.constant_proofs = 0
        self._prove_constants()
        self.constant_s = time.perf_counter() - started

    def _add_binary(self, a: int, b: int) -> None:
        self.imp[a ^ 1].append(b)
        self.imp[b ^ 1].append(a)

    def _new_var(self) -> int:
        v = self.n_vars
        self.n_vars += 1
        self.val += (0, 0)
        self.imp += ([], [])
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(0)
        self.seen.append(0)
        self.is_decision.append(0)
        return v

    def _support_inputs(self, mask: int) -> list[int]:
        """The comb inputs set in the support ``mask``."""
        return [li for k, li in enumerate(self.input_idx) if mask >> k & 1]

    # -- good-machine constants ------------------------------------------ #

    def _prove_constants(self) -> None:
        """Commit every constant line of the good machine at level 0.

        Candidates are the lines whose word is constant over a fixed
        seeded batch of random patterns.  A candidate level 0 does not
        already imply is checked under a fresh selector: its other value
        is assumed, only its support inputs are decided, and UNSAT
        commits the constant as a unit.  Topological order lets every
        proven constant simplify the later checks.
        """
        circuit, names, val = self.circuit, self.names, self.val
        words = simulate_packed(
            circuit, random_input_words(circuit, CONSTANT_PATTERNS,
                                        make_rng(_CONSTANT_SEED)),
            CONSTANT_PATTERNS)
        full = (1 << CONSTANT_PATTERNS) - 1
        for li in self.engine.topo_idx:
            word = words[names[li]]
            if word != 0 and word != full:
                continue
            lit = 2 * li + (word == 0)        # the line at its constant
            if val[lit]:
                continue
            self._sel = sel = self._new_var()
            self.imp[2 * sel].append(lit ^ 1)
            self.constant_proofs += 1
            status, _conflicts, _assignment = self._search(
                self._support_inputs(self.support[li]))
            if status == REDUNDANT:
                self._enqueue(lit, None)
                if self._propagate() is not None:   # pragma: no cover
                    raise AtpgError("constant proof is inconsistent")
                self.constants[li] = int(word != 0)

    def _settled(self, site: int, stuck: int) -> bool:
        """The structural fast path of :meth:`settles` on an index."""
        if not self.reach[site] or self.val[2 * site + stuck] < 0:
            return True
        return not self.is_obs[site] and self._implied(site, stuck)

    def _implied(self, site: int, stuck: int) -> bool:
        """The implication stage of the fast path (see the module doc).

        Decision level 1 assumes the activation value, then the good
        values at the dominators :meth:`_side_values` finds, until a
        conflict, no observable line that may differ (both a proof) or
        a round that adds nothing.  Level 0, the trail, saved phases,
        activities and the heap are left as they were.
        """
        val, trail = self.val, self.trail
        phase = bytes(self.phase)
        self.trail_lim.append(len(trail))
        try:
            assumed = [2 * site + stuck]
            while assumed:
                for lit in assumed:
                    if val[lit] < 0:
                        return True
                    if not val[lit]:
                        self._enqueue(lit, None)
                if self._propagate() is not None:
                    return True
                faulty = self._differing(site, stuck)
                if faulty is None:
                    return True
                assumed = self._side_values(site, faulty)
            return False
        finally:
            self._backtrack(0)
            self.phase[:] = phase

    def _differing(self, site: int, stuck: int) -> dict[int, int] | None:
        """The lines that may differ under the current good values.

        An event-driven walk from the site in topological order visits
        only lines with a fanin that may differ and evaluates their
        faulty value in three-valued logic (X is 2): a fanin that may
        differ reads its faulty value, any other its good value.  A
        line may differ unless both values are binary and equal, or it
        is a MUX2 whose binary select and selected data line cannot
        differ.  Observable lines are not walked past (see :meth:`_cone`).
        Returns those lines with their faulty values in topological
        order (the site first), or None when no observable line may
        differ.
        """
        val, op, fanin, fanout = self.val, self.op, self.fanin, self.fanout
        is_obs = self.is_obs
        topo, pos = self.engine.topo_idx, self.engine._topo_pos
        faulty = {site: stuck}
        queued = set(fanout[site])
        heap = [pos[gi] for gi in queued]
        heapq.heapify(heap)
        observed = False
        while heap:
            li = topo[heapq.heappop(heap)]
            if op[li] == _MUX:
                # a binary select that cannot differ passes one data
                # line, which is equal in both machines if it cannot
                # differ, even where three-valued logic reads it as X
                sel, d0, d1 = fanin[li]
                if val[2 * sel] and sel not in faulty \
                        and (d1 if val[2 * sel] > 0 else d0) not in faulty:
                    continue
            # PODEM's pair-code tables, fed codes ``3 * v + v`` that
            # carry the faulty value in both halves
            acc, table, final = _TABLES[op[li]]
            for si in fanin[li]:
                acc = table[acc + 4 * (faulty[si] if si in faulty
                                       else _GOOD3[val[2 * si]])]
            out = final[acc] // 3
            if out == _GOOD3[val[2 * li]] != 2:
                continue
            faulty[li] = out
            if is_obs[li]:
                observed = True
                continue
            for gi in fanout[li]:
                if gi not in queued:
                    queued.add(gi)
                    heapq.heappush(heap, pos[gi])
        return faulty if observed else None

    def _side_values(self, site: int, faulty: dict[int, int]) -> list[int]:
        """Unassigned good values forced at the site's dominators.

        The dominators are the lines every path of lines in ``faulty``
        from the site to an observable one passes through; each test
        carries a difference along such a path, so it makes them all
        differ.  A dominator with a binary faulty value then holds the
        other good value, and at an AND/NAND/OR/NOR dominator every
        fanin that cannot differ holds the non-controlling value.  A line
        dominates when it is the only one pending as the lines are
        taken in topological order, counting only lines that reach an
        observable line, and no observable line came before it.
        """
        is_obs, fanout, fanin = self.is_obs, self.fanout, self.fanin
        op, val = self.op, self.val
        order = list(faulty)
        alive: set[int] = set()
        for li in reversed(order):
            if is_obs[li] or not alive.isdisjoint(fanout[li]):
                alive.add(li)
        assumed: list[int] = []
        reached = {site}
        pending = 1
        for li in order:
            if li not in reached:
                continue
            pending -= 1
            if not pending and li != site:
                out = faulty[li]
                if out != 2 and not val[2 * li]:
                    assumed.append(2 * li + out)
                ncv = _NON_CONTROLLING.get(op[li])
                if ncv is not None:
                    assumed += [2 * si + 1 - ncv for si in fanin[li]
                                if si not in faulty
                                and not val[2 * si + 1 - ncv]]
            if is_obs[li]:
                break
            for gi in fanout[li]:
                if gi in alive and gi not in reached:
                    reached.add(gi)
                    pending += 1
        return assumed

    # -- per-fault encoding --------------------------------------------- #

    def _cone(self, site: int) -> list[int]:
        """The lines a fault effect at ``site`` can travel through to
        an observable line, marked with a fresh stamp.

        Fanouts of observable lines are not followed: the first
        observable line on any propagation path already detects, and a
        difference that reaches a line only through observable lines
        went through one of them first.  A cone line with a fanin
        outside the cone reads that fanin's good value; where this
        misreads a real difference, an earlier observable line differs
        too, so verdicts and models are those of the full cone.
        """
        self._epoch += 1
        epoch, stamp = self._epoch, self._stamp
        fanout, is_obs = self.fanout, self.is_obs
        stamp[site] = epoch
        cone = [site]
        for li in cone:
            if is_obs[li]:
                continue
            for si in fanout[li]:
                if stamp[si] != epoch:
                    stamp[si] = epoch
                    cone.append(si)
        return cone

    def _template(self, li: int, mask: int) -> _Template:
        """Guarded clause cores of cone line ``li``: its faulty gate
        (fanin ``k`` reads the faulty slot when bit ``k`` of ``mask`` is
        set; ``mask`` -1 marks the fault site, which has no gate) and
        its D-chain clauses, simplified against level 0.  Two-literal
        cores come as implication groups ``(literal, implied)``."""
        n = self.n
        f0, d0 = 2 * n, 4 * n              # literal offsets of the slots
        cores: list[list[int]] = []
        if mask >= 0:
            ins = [f0 + 2 * si if mask >> k & 1 else 2 * si
                   for k, si in enumerate(self.fanin[li])]
            for clause in _gate_clauses(self.op[li], f0 + 2 * li, ins):
                if self.repeated[li]:
                    clause = _normalize(clause)
                    if clause is None:
                        continue
                cores.append(clause)
        g, f, d = 2 * li, f0 + 2 * li, d0 + 2 * li
        cores.append([d + 1, g, f])             # d -> good != faulty
        cores.append([d + 1, g + 1, f + 1])
        if not self.is_obs[li]:                 # d -> some fanout has d
            cores.append([d + 1] + [d0 + 2 * si for si in self.fanout[li]])
        val = self.val
        long: list[list[int]] = []
        implied: defaultdict[int, list[int]] = defaultdict(list)
        units: list[int] = []
        for core in cores:
            if any(val[lit] > 0 for lit in core):
                continue
            core = [lit for lit in core if not val[lit]]
            if len(core) > 2:
                long.append(core)
            elif len(core) == 2:
                a, b = core
                implied[a ^ 1].append(b)
                implied[b ^ 1].append(a)
            elif core:
                units.append(core[0])
            else:
                return [], [], [], True
        return long, list(implied.items()), units, False

    def _encode(self, site: int, stuck: int) -> list[int] | None:
        """Add the guarded clauses of fault ``site``/``stuck``.

        Returns the comb inputs in the fault's support (the decision
        variables), or None when the fault is redundant by
        construction.  The fault must not be :meth:`_settled`.
        """
        n = self.n
        self._sel = sel = self._new_var()
        self.fwatches = fwatches = defaultdict(list)
        self.fimp = fimp = defaultdict(list)
        cone = self._cone(site)
        val = self.val
        units = self.imp[2 * sel]
        # faulty site = stuck, activation, D at the site (none is false
        # at level 0 once the fault is not settled)
        for lit in (2 * (n + site) + 1 - stuck, 2 * site + stuck,
                    2 * (2 * n + site)):
            if not val[lit]:
                units.append(lit)
        epoch, stamp, fanin = self._epoch, self._stamp, self.fanin
        templates = self._templates
        guard = [2 * sel + 1]
        for li in cone:
            mask = -1
            if li != site:
                mask = 0
                for k, si in enumerate(fanin[li]):
                    if stamp[si] == epoch:
                        mask |= 1 << k
            template = templates[li].get(mask)
            if template is None:
                template = templates[li][mask] = self._template(li, mask)
            cores, groups, line_units, empty = template
            if empty:
                return None
            for core in cores:
                clause = core + guard
                fwatches[clause[0]].append(clause)
                fwatches[clause[1]].append(clause)
            for lit, implied in groups:
                fimp[lit].extend(implied)
            units += line_units
        mask = 0
        support = self.support
        for li in cone:
            mask |= support[li]
        return self._support_inputs(mask)

    def _kill(self) -> None:
        """Retire the current fault: unit-kill its selector, which
        satisfies every clause it guards at level 0, and drop them."""
        self._backtrack(0)
        self._enqueue(2 * self._sel + 1, None)
        self.qhead = len(self.trail)
        self.imp[2 * self._sel] = []
        self.fwatches = defaultdict(list)
        self.fimp = defaultdict(list)

    # -- solver ---------------------------------------------------------- #

    def _enqueue(self, lit: int, reason: _Reason) -> None:
        self.val[lit] = 1
        self.val[lit ^ 1] = -1
        v = lit >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        val, imp = self.val, self.imp
        homes = (self.watches, self.fwatches)
        level, reason, trail = self.level, self.reason, self.trail
        dl = len(self.trail_lim)
        guard = 2 * self._sel + 1
        fimp = self.fimp
        qhead = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            for q in imp[p]:
                vq = val[q]
                if vq > 0:
                    continue
                if vq < 0:
                    self.qhead = qhead
                    return [q, p ^ 1]
                val[q] = 1
                val[q ^ 1] = -1
                v = q >> 1
                level[v] = dl
                reason[v] = p ^ 1
                trail.append(q)
            fq = fimp.get(p)
            if fq:
                for q in fq:
                    vq = val[q]
                    if vq > 0:
                        continue
                    if vq < 0:
                        self.qhead = qhead
                        return [q, p ^ 1, guard]
                    val[q] = 1
                    val[q ^ 1] = -1
                    v = q >> 1
                    level[v] = dl
                    reason[v] = [q, p ^ 1, guard]
                    trail.append(q)
            false_lit = p ^ 1
            for home in homes:
                ws = home.get(false_lit)
                if not ws:
                    continue
                home[false_lit] = kept = []
                for i, c in enumerate(ws):
                    a = c[0]
                    if a == false_lit:
                        a = c[1]
                        c[0] = a
                        c[1] = false_lit
                    va = val[a]
                    if va > 0:
                        kept.append(c)
                        continue
                    for k in range(2, len(c)):
                        lit = c[k]
                        if val[lit] >= 0:
                            c[1] = lit
                            c[k] = false_lit
                            home[lit].append(c)
                            break
                    else:
                        kept.append(c)
                        if va < 0:
                            kept.extend(ws[i + 1:])
                            self.qhead = qhead
                            return c
                        val[a] = 1
                        val[a ^ 1] = -1
                        v = a >> 1
                        level[v] = dl
                        reason[v] = c
                        trail.append(a)
        self.qhead = qhead
        return None

    def _backtrack(self, target: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= target:
            return
        val, phase, reason = self.val, self.phase, self.reason
        is_decision, activity, heap = self.is_decision, self.activity, \
            self.heap
        start = trail_lim[target]
        trail = self.trail
        for lit in trail[start:]:
            v = lit >> 1
            val[lit] = 0
            val[lit ^ 1] = 0
            phase[v] = lit & 1
            reason[v] = None
            if is_decision[v]:
                heapq.heappush(heap, (-activity[v], v))
        del trail[start:]
        del trail_lim[target:]
        self.qhead = start

    def _bump(self, v: int) -> None:
        activity = self.activity
        activity[v] += self.bump
        if activity[v] > 1e100:
            for u in range(self.n_vars):
                activity[u] *= 1e-100
            self.bump *= 1e-100
            self._rebuild_heap()
        elif self.is_decision[v] and not self.val[2 * v]:
            heapq.heappush(self.heap, (-activity[v], v))

    def _rebuild_heap(self) -> None:
        val, activity = self.val, self.activity
        self.heap = [(-activity[v], v) for v in self._decision_vars
                     if not val[2 * v]]
        heapq.heapify(self.heap)

    def _analyze(self, conflict: list[int]) -> list[int]:
        """First-UIP learned clause; ``[0]`` is the asserting literal
        and ``[1]`` (if any) a literal of the backjump level."""
        seen, level, reason, trail = (self.seen, self.level, self.reason,
                                      self.trail)
        dl = len(self.trail_lim)
        learnt = [0]
        pending = 0
        idx = len(trail) - 1
        lits: list[int] | tuple[int] = conflict
        skip = 0                      # reason clauses: skip the implied
        while True:
            for q in itertools.islice(lits, skip, None):
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    self._bump(v)
                    if level[v] == dl:
                        pending += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            v = p >> 1
            seen[v] = 0
            pending -= 1
            if pending == 0:
                break
            r = reason[v]
            if type(r) is int:
                lits, skip = (r,), 0
            else:
                lits, skip = r, 1     # type: ignore[assignment]
        learnt[0] = p ^ 1
        for q in learnt[1:]:
            seen[q >> 1] = 0
        if len(learnt) > 2:
            guard = 2 * self._sel + 1
            best = max(range(1, len(learnt)),
                       key=lambda i: (level[learnt[i] >> 1],
                                      learnt[i] != guard))
            learnt[1], learnt[best] = learnt[best], learnt[1]
            if guard in learnt[2:]:
                learnt.remove(guard)
                learnt.append(guard)
        return learnt

    def _learn(self, learnt: list[int]) -> None:
        """Backjump, store ``learnt`` and assert its first literal.

        A learned unit (a value the good machine can never take, reached
        through the fault's clauses) is stored guarded by the selector,
        which is still sound.  So a search never backjumps to level 0,
        which only changes when a selector is killed (or, while the
        prover is built, when a proven constant is committed), and the
        current fault's clauses never need re-simplifying against it.
        """
        guard = 2 * self._sel + 1
        if len(learnt) == 1:
            learnt.append(guard)
        self._backtrack(self.level[learnt[1] >> 1])
        uip = learnt[0]
        if len(learnt) == 2:
            other = learnt[1]
            if other == guard:
                self.imp[2 * self._sel].append(uip)
            else:
                self._add_binary(uip, other)
            self._enqueue(uip, other)
            return
        home = self.fwatches if learnt[-1] == guard else self.watches
        home[uip].append(learnt)
        home[learnt[1]].append(learnt)
        self._enqueue(uip, learnt)

    def _pick(self) -> int:
        """Free decision variable of highest activity, or -1."""
        heap, val = self.heap, self.val
        activity, is_decision = self.activity, self.is_decision
        while heap:
            neg, v = heapq.heappop(heap)
            if not val[2 * v] and is_decision[v] and -neg == activity[v]:
                return v
        return -1

    def _solve(self) -> tuple[str, int]:
        """CDCL search under the current selector."""
        self.trail_lim.append(len(self.trail))
        self._enqueue(2 * self._sel, None)
        conflicts = 0
        restarts = 0
        next_restart = _RESTART_UNIT * _luby(0)
        limit = 10 * len(self._decision_vars) + 64
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if len(self.trail_lim) <= 1:
                    return REDUNDANT, conflicts
                conflicts += 1
                self._learn(self._analyze(conflict))
                self.bump *= _DECAY
                if conflicts >= MAX_CONFLICTS:
                    return UNKNOWN, conflicts
                if conflicts >= next_restart:
                    restarts += 1
                    next_restart = conflicts + _RESTART_UNIT * _luby(restarts)
                    self._backtrack(1)
                continue
            if len(self.heap) > limit:
                self._rebuild_heap()
            v = self._pick()
            if v < 0:
                return TESTABLE, conflicts
            self.trail_lim.append(len(self.trail))
            self._enqueue(2 * v + self.phase[v], None)

    def _search(self, decision_vars: list[int]
                ) -> tuple[str, int, dict[str, int]]:
        """Solve under the current selector, deciding only
        ``decision_vars``, then kill the selector.  Returns the status,
        the conflict count and, on "testable", the decided inputs."""
        self._decision_vars = decision_vars
        is_decision = self.is_decision
        for v in decision_vars:
            is_decision[v] = 1
        self._rebuild_heap()
        status, conflicts = self._solve()
        assignment: dict[str, int] = {}
        if status == TESTABLE:
            val = self.val
            assignment = {self.names[v]: int(val[2 * v] > 0)
                          for v in decision_vars}
        for v in decision_vars:
            is_decision[v] = 0
        self.heap = []
        self._kill()
        return status, conflicts, assignment

    def _site(self, fault: Fault) -> int:
        if self.circuit.version != self.version:
            raise AtpgError("prover is stale: the circuit changed after "
                            "the prover was built")
        try:
            return self.index[fault.line]
        except KeyError:
            raise AtpgError(
                f"fault line {fault.line!r} not in circuit") from None

    def settles(self, fault: Fault) -> bool:
        """Whether ``fault`` is redundant by the structural fast path
        (see the module doc): no search runs, and True is a proof.

        First the structural checks, then the implication stage: the
        activation value and the good values forced at the site's
        dominators are necessary conditions of every test, so a
        conflict among them, or no observable line that may still
        differ under them, proves the fault redundant.  Nothing is
        learned, and level 0, the trail, saved phases, activities and
        the decision heap are left as they were.
        """
        return self._settled(self._site(fault), fault.stuck_at)

    def prove(self, fault: Fault) -> SatResult:
        """Decide whether ``fault`` is redundant (see the module doc)."""
        site = self._site(fault)
        if self._settled(site, fault.stuck_at):
            return SatResult(REDUNDANT, {}, 0)
        decision_vars = self._encode(site, fault.stuck_at)
        if decision_vars is None:
            self._kill()
            return SatResult(REDUNDANT, {}, 0)
        status, conflicts, assignment = self._search(decision_vars)
        return SatResult(status, assignment, conflicts)
