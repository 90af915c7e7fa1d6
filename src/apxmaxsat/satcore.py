"""Incremental CDCL SAT backend.

A conflict-driven clause-learning solver with two-watched-literal
propagation, first-UIP learning, activity-ordered branching with phase
saving (default polarity false), geometric restarts, and activity-based
learned-clause deletion. Clauses can be added between solve calls; clauses
are never retracted, so the database only grows within a search episode.
The learned-clause limit starts at max(4000, twice the problem clauses),
counted off the watch lists at the first call: every clause attached by
then is a problem clause watched twice, and none is learned yet.

Clauses live in one flat list of ints, the arena (MiniSat's layout). A
clause is the int offset of its header, which holds the clause's size and
is negated once the clause is deleted; its literals follow, and the first
two are watched. Literal values and watch lists are lists indexed by the
literal itself: -l is reached through Python's negative indexing, so
value[l] is 1, -1 or 0 for a true, false or unassigned literal l, and
value[v] for a variable v > 0 reads its own state. Learned-clause deletion
only marks headers; once deleted clauses hold more than half the arena it
is compacted, keeping the order of the live clauses and of every watch
list, so the search is the same as if nothing had moved.

Propagation walks the watch list of each literal made false in place, as
MiniSat does: a clause that stays watched there is written back at the
list's write position and the list is cut after the walk, while a
conflict copies the watchers not yet visited down behind it, so no list
is allocated per literal and every list keeps its order. It branches on
the clause's size because CPython's cost is per operation, and a range
object or a loop costs more than the few literal tests it serves: a
binary clause goes straight to satisfied, unit or conflict, a ternary one
tests its one spare literal, and only clauses of four or more literals
scan for a new watch. Most clauses the encoders and the relaxation make
have two or three literals.

add_clause branches on size for the same reason. The general path
converts each literal with int(), checks its range, looks duplicates and
tautologies up in a set, backtracks to level 0 and drops literals fixed
there; a list or tuple of two or three ints over distinct free variables
in range, added while no level is open, needs none of that and goes
straight to the arena and its two watch lists. It is the clause, arena
layout and watch order the general path would make: the branch only skips
checks whose outcome is known.

A solve call may take assumptions (MiniSat style): literals that hold for
that call only. Assumption i is decided at level i+1 before any branching;
when one is already false at its turn the call returns UNSAT and the
solver stays usable, so a bound tried as an assumption is retracted simply
by not assuming it again. Learned clauses never depend on assumptions and
are kept across calls.

Only decision variables are branched on. A variable made with
new_var(decision=False) never enters the branching order: propagation alone
assigns it, and at SAT one it left unassigned reads False in the model
(MiniSat's decision flag); its only record is its order position, which
stays _UNORDERED, since no rebuild places it and no bump makes it hot.
That model satisfies every clause as long as no clause holds more than one
positive literal over non-decision variables: at a propagation fixpoint
with every decision variable assigned, a clause not yet satisfied has at
least two unassigned literals, all over non-decision variables, so at
least one of them is negative and reading False satisfies it. Learned
clauses follow from the clauses added, so the model satisfies them too;
UNSAT answers do not depend on branching at all. The variables the
encoders make meet this contract (see encodings).

Branching picks the unassigned decision variable of highest activity,
the lower index first among equals: the least key (-activity, v), as
MiniSat's heap does, but without a heap over every variable. The order
(_order) lists the decision variables by key as of its last rebuild, and a
search pointer into it (as in the VMTF queue of Biere and Froehlich) stays
at or before the first unassigned one: a decision moves it forward past
assigned variables, and a backtrack moves it back to the least position
it unassigns, with no per-variable heap work. A variable bumped or made
since the rebuild is hot: its place in the order is stale, so a small
lazy heap holds it instead, with one (-activity, v) entry per bump or
unassignment, each dropped once it is stale. A decision takes the lesser
key of the pointer's variable and the heap's top. The order is rebuilt,
and the heap emptied, on every activity rescale and whenever the heap
grows past a quarter of the order (plus a small constant), so the heap's
work stays a fraction of the descent's.

solve's decision loop keeps the trail, the level list, the value and
phase lists, the stats, the assumption count and the bound _propagate and
_pick_branch in locals, and enqueues each decision inline: a descent's SAT
call re-walks about 1500 decisions with 0-1 conflicts on large instances,
so the per-decision attribute loads and calls add up.

Trail levels ascend only until a backjump is kept chronological
(chronological backtracking: Nadel and Ryvchin, SAT 2018, made simple and
sound by Moehle and Biere, "Backing Backtracking", SAT 2019). When a
learned clause would jump back more than _CHRONO levels, the solver
backtracks only to one level below the conflict's and asserts the learned
literal at its own lower level, the highest of the clause's other
literals, on top of the kept trail: a unit learned at level 1500 does not
drop the search to level 0 only for it to make the same 1500 phase-saved
decisions again. While the trail holds such an out-of-order literal it is
mixed (_mixed holds the least level one was placed at), and then:
- an implied literal's level is its implication level, the highest among
  its reason's other literals; _imply_levels sets it after each
  propagation, in trail order, so every reason is done before what it
  implies;
- a backtrack to level t keeps the literals of level <= t above its cut:
  they move down to the cut in their order and are propagated again,
  which also mends the watches of any clause they falsify;
- a conflict's level is the highest in its clause, which may lie below
  the current level; level 0 means UNSAT. _analyze learns at that level
  and its trail walk passes over the lower-level literals above it. The
  backjump that follows goes below that level anyway, so nothing
  backtracks to it first.
A backtrack to _mixed or below leaves the trail in order again: at every
restart and at the start of every call. While the trail is in order none
of this costs a per-literal step: both watches of a conflict were set at
the current level, which is its level, and an implied literal takes the
current level, the highest of its reason's.

A solve call may take a Budget, which it charges with its conflicts and
polls on entry, after every conflict and every 1024 decisions; exhaustion
yields UNKNOWN. A fixed seed makes runs reproducible; the seed only feeds
occasional random branching decisions.

A solver instance is single-threaded; run independent instances for
parallelism.
"""

from __future__ import annotations

import random
import time
from enum import Enum
from heapq import heappop, heappush

_RESCALE_LIMIT = 1e100
_RANDOM_DECISION_FREQ = 0.02
_HOT_SHARE = 4  # rebuild the order once the hot heap holds a quarter of it
_HOT_SLACK = 64
_UNORDERED = 1 << 62  # order position of a non-decision variable
_CHRONO = 100  # Nadel and Ryvchin's T: a longer backjump is kept chronological


class Status(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


class Budget:
    """Wall-clock deadline (time.monotonic()), conflicts left and a
    cooperative stop callable, each None when unlimited. Every solve call
    it is passed to counts its conflicts against it, so one Budget bounds a
    whole sequence of calls. A timeout must be a number >= 0: a NaN one
    would never run out. A conflict limit must be >= 0 too."""

    def __init__(self, timeout_s: float | None = None,
                 max_conflicts: int | None = None, stop=None):
        if timeout_s is not None and not timeout_s >= 0:
            raise ValueError(f"timeout must be >= 0, got {timeout_s!r}")
        if max_conflicts is not None and max_conflicts < 0:
            raise ValueError(f"conflict limit must be >= 0, got {max_conflicts!r}")
        self.deadline = (time.monotonic() + timeout_s
                         if timeout_s is not None else None)
        self.conflicts_left = max_conflicts
        self.stop = stop

    def exhausted(self) -> bool:
        if self.stop is not None and self.stop():
            return True
        if self.deadline is not None and time.monotonic() >= self.deadline:
            return True
        if self.conflicts_left is not None and self.conflicts_left <= 0:
            return True
        return False


class SatSolver:
    """CDCL solver over variables 1..num_vars.

    Variables referenced beyond the current range auto-extend it. add_clause
    accepts any iterable of nonzero signed ints; tautologies are dropped and
    duplicate literals deduplicated. Adding the empty clause (or deriving a
    level-0 conflict) makes every future solve return UNSAT. stats counts
    conflicts, decisions, restarts, learned-clause reductions and
    propagations (literals taken off the trail by propagation);
    clauses_added counts add_clause calls, dropped clauses included.
    """

    # activity decay, kept off the instance: a 30th instance attribute made
    # loading clauses about 8% slower (CPython 3.11, 2-vCPU VM)
    var_decay_inv = 1.0 / 0.95
    cla_decay_inv = 1.0 / 0.999

    def __init__(self, num_vars: int = 0, seed: int = 0):
        # variables 1..n are made in one pass, in the state n new_var()
        # calls leave them in: decision variables, every one hot
        n = num_vars
        cap = 16 if n else 0  # as new_var grows it: 16 doubled until n fits
        while cap < n:
            cap *= 2
        self.num_vars = n
        self.ok = True
        # clause arena: [size, lit, lit, ...] per clause, size negated once
        # deleted; a clause is the offset of its header
        self.arena: list[int] = []
        self.learnts: dict[int, float] = {}  # learnt offset -> activity
        self._garbage = 0  # arena cells held by deleted clauses
        # literal-indexed state, -l reached by negative indexing: slots 1..cap
        # hold the positive literals, the last cap the negative ones
        self.value = [0] * (2 * cap + 1)  # 1 true, -1 false, 0 unassigned
        self.watches: list[list[int] | None] = (
            [None] + [[] for _ in range(n)] + [None] * (2 * (cap - n))
            + [[] for _ in range(n)])
        # per-variable state, index 0 unused
        self.level = [0] * (n + 1)
        self.reason: list[int | None] = [None] * (n + 1)
        self.phase = [False] * (n + 1)    # saved polarity; default false
        self.activity = [0.0] * (n + 1)
        self._decisions = list(range(1, n + 1))  # the decision variables, ascending
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        # -1 while the trail's levels ascend; else the least level of a
        # literal placed out of order (see the module docstring)
        self._mixed = -1
        # branching: see the module docstring
        self._order: list[int] = []  # decision variables by (-activity, v)
        self._pos = [_UNORDERED] + [-1] * n  # place in _order; -1 while hot
        self._ptr = 0                # no unassigned, not hot variable before it
        # the hot variables; ascending entries already form a heap
        self._heap = [(-0.0, v) for v in self._decisions]
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.rng = random.Random(seed)
        self._max_learnts: float | None = None
        self.clauses_added = 0
        self.stats = {"conflicts": 0, "decisions": 0, "restarts": 0,
                      "reductions": 0, "propagations": 0}

    # ------------------------------------------------------------------
    # variables and clauses

    def new_var(self, decision: bool = True) -> int:
        """Add a variable and return it. A non-decision variable is never
        branched on: it is set only by propagation (or an assumption) and
        reads False in a SAT model where nothing set it. Make one only if no
        clause holds more than one positive literal over non-decision
        variables; otherwise a SAT model may falsify a clause."""
        self.num_vars += 1
        v = self.num_vars
        cap = len(self.value) >> 1
        if v > cap:
            self._grow(max(2 * cap, 16))
        self.value[v] = self.value[-v] = 0
        self.watches[v] = []
        self.watches[-v] = []
        self.level.append(0)
        self.reason.append(None)
        self.phase.append(False)
        self.activity.append(0.0)
        if decision:
            self._decisions.append(v)
            self._pos.append(-1)
            heappush(self._heap, (-0.0, v))
        else:
            self._pos.append(_UNORDERED)
        return v

    def _grow(self, cap: int) -> None:
        """Widen the literal-indexed lists to hold variables 1..cap."""
        old = len(self.value) >> 1
        gap = 2 * (cap - old)
        self.value = self.value[:old + 1] + [0] * gap + self.value[old + 1:]
        self.watches = self.watches[:old + 1] + [None] * gap + self.watches[old + 1:]

    def _ensure_var(self, v: int) -> None:
        while self.num_vars < v:
            self.new_var()

    def add_clause(self, lits) -> None:
        """Add a clause; no-op once the solver is in the UNSAT state.

        A list or tuple of two or three ints (type int exactly) over
        distinct free variables in 1..num_vars, added while no level is
        open, takes a short branch: it is appended to the arena and its
        first two literals' watch lists as _attach does. The general path
        would do exactly that with such a clause, so both leave the same
        arena, watch order and state; any other clause, or a call with a
        level open, takes the general path."""
        self.clauses_added += 1
        if not self.ok:
            return
        if (type(lits) is list or type(lits) is tuple) and not self.trail_lim:
            head = None
            size = len(lits)
            if size == 3:
                a, b, c = lits
                if type(a) is int and type(b) is int and type(c) is int:
                    # squares compare variables: l is a literal in range
                    # when 0 < l * l <= num_vars ** 2, and two literals are
                    # over distinct variables when their squares differ
                    top = self.num_vars * self.num_vars
                    sa, sb, sc = a * a, b * b, c * c
                    value = self.value
                    if (0 < sa <= top and 0 < sb <= top and 0 < sc <= top
                            and sa != sb != sc != sa
                            and not (value[a] or value[b] or value[c])):
                        head = (3, a, b, c)
            elif size == 2:
                a, b = lits
                if type(a) is int and type(b) is int:
                    top = self.num_vars * self.num_vars
                    sa, sb = a * a, b * b
                    value = self.value
                    if (0 < sa <= top and 0 < sb <= top and sa != sb
                            and not (value[a] or value[b])):
                        head = (2, a, b)
            if head:  # _attach(list(lits)), inlined
                arena = self.arena
                k = len(arena)
                arena += head
                watches = self.watches
                watches[a].append(k)
                watches[b].append(k)
                return
        out: list[int] = []
        seen: set[int] = set()
        top = self.num_vars
        for l in lits:
            l = int(l)
            if not -top <= l <= top:
                self._ensure_var(abs(l))
                top = self.num_vars
            elif l == 0:
                raise ValueError("0 is not a literal")
            if l in seen:
                continue
            if -l in seen:
                return  # tautology: always satisfied
            out.append(l)
            seen.add(l)
        if self.trail_lim:
            self._backtrack(0)
        value = self.value
        for l in out:
            if value[l]:
                if 1 in [value[k] for k in out]:
                    return  # satisfied at level 0
                out = [k for k in out if not value[k]]  # false ones stay false
                break
        if len(out) > 1:
            self._attach(out)
        elif out:
            self._enqueue(out[0], None)
            if self._propagate() is not None:
                self.ok = False
        else:
            self.ok = False

    def _attach(self, lits: list[int]) -> int:
        """Append a clause of two or more literals to the arena and watch
        its first two; returns its offset."""
        arena = self.arena
        c = len(arena)
        arena.append(len(lits))
        arena += lits
        self.watches[lits[0]].append(c)
        self.watches[lits[1]].append(c)
        return c

    # ------------------------------------------------------------------
    # trail

    def _enqueue(self, lit: int, reason: int | None) -> None:
        v = abs(lit)
        self.value[lit] = 1
        self.value[-lit] = -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _backtrack(self, target: int) -> None:
        """Unassign every level above target, saving each phase. The
        pointer moves back to the least order position unassigned; a hot
        variable is pushed back on the heap instead. On a mixed trail the
        literals of level <= target above the cut stay assigned: they move
        down to the cut, in their order, and are propagated again."""
        if len(self.trail_lim) <= target:
            return
        lim = self.trail_lim[target]
        trail = self.trail
        value = self.value
        phase = self.phase
        reason = self.reason
        pos = self._pos
        low = self._ptr
        gone = trail[lim:]
        kept = None
        if self._mixed >= 0:
            level = self.level
            kept = [lit for lit in gone if level[abs(lit)] <= target]
            if kept:
                gone = [lit for lit in gone if level[abs(lit)] > target]
            if target <= self._mixed:
                self._mixed = -1  # what is kept sits at level target, the top
        for lit in gone:
            v = lit if lit > 0 else -lit
            phase[v] = lit > 0
            value[lit] = value[-lit] = 0
            reason[v] = None
            if pos[v] < low:
                if pos[v] < 0:
                    heappush(self._heap, (-self.activity[v], v))
                else:
                    low = pos[v]
        self._ptr = low
        del trail[lim:]
        if kept:
            trail += kept
        del self.trail_lim[target:]
        self.qhead = min(self.qhead, lim)
        self._maybe_rebuild_order()

    # ------------------------------------------------------------------
    # propagation

    def _propagate(self) -> int | None:
        arena = self.arena
        watches = self.watches
        value = self.value
        trail = self.trail
        level = self.level
        reason = self.reason
        lvl = len(self.trail_lim)
        start = qhead = self.qhead
        conflict = None
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches[false_lit]
            if not ws:
                continue
            j = 0  # ws[:j] holds the clauses kept so far
            it = iter(ws)
            for c in it:
                size = arena[c]
                if size < 0:
                    continue  # deleted
                c1 = c + 1
                c2 = c + 2
                first = arena[c1]
                if first == false_lit:
                    first = arena[c2]
                    arena[c1] = first
                    arena[c2] = false_lit
                v0 = value[first]
                if v0 == 1:
                    ws[j] = c
                    j += 1
                    continue
                if size == 3:  # one spare literal: no range to build
                    lk = arena[c + 3]
                    if value[lk] != -1:
                        arena[c2] = lk
                        arena[c + 3] = false_lit
                        watches[lk].append(c)
                        continue
                elif size != 2:
                    for k in range(c + 3, c1 + size):
                        lk = arena[k]
                        if value[lk] != -1:
                            break
                    if value[lk] != -1:  # the scan broke off at lk
                        arena[c2] = lk
                        arena[k] = false_lit
                        watches[lk].append(c)
                        continue
                # every other literal is false: unit or conflict
                ws[j] = c
                j += 1
                if v0 == -1:
                    ws[j:] = list(it)  # keep the watchers not visited
                    conflict = c
                    break
                value[first] = 1  # _enqueue(first, c), inlined
                value[-first] = -1
                v = first if first > 0 else -first
                level[v] = lvl
                reason[v] = c
                trail.append(first)
            else:  # walked to the end: drop the moved and deleted watchers
                del ws[j:]
                continue
            break  # a conflict
        self.stats["propagations"] += qhead - start
        self.qhead = len(trail) if conflict is not None else qhead
        if self._mixed >= 0:
            self._imply_levels(start)
        return conflict

    def _imply_levels(self, start: int) -> None:
        """On a mixed trail, give each literal implied since trail[start]
        the highest level among its reason's other literals, in trail
        order, so every reason is done before the literals it implies."""
        arena = self.arena
        level = self.level
        reason = self.reason
        for lit in self.trail[start:]:
            v = lit if lit > 0 else -lit
            r = reason[v]
            if r is not None:  # not a decision or a unit
                level[v] = max([level[abs(q)] for q in arena[r + 2:r + 1 + arena[r]]])

    # ------------------------------------------------------------------
    # conflict analysis (first UIP)

    def _rescale_var_activity(self) -> None:
        act = self.activity
        for v in self._decisions:  # the others are never bumped and stay 0
            act[v] *= 1e-100
        self.var_inc *= 1e-100
        self._rebuild_order()

    def _maybe_rebuild_order(self) -> None:
        if len(self._heap) > len(self._order) // _HOT_SHARE + _HOT_SLACK:
            self._rebuild_order()

    def _rebuild_order(self) -> None:
        """Sort every decision variable, assigned or not, by (-activity, v)
        into the order, and empty the heap: no variable is hot any more."""
        act = self.activity
        # a stable sort of the ascending indices breaks ties by index
        order = sorted(self._decisions, key=lambda v: -act[v])
        pos = self._pos
        for i, v in enumerate(order):
            pos[v] = i
        self._order = order
        self._ptr = 0
        self._heap = []

    def _bump_cla(self, c: int) -> None:
        act = self.learnts
        act[c] += self.cla_inc
        if act[c] > _RESCALE_LIMIT:
            for d in act:
                act[d] *= 1e-100
            self.cla_inc *= 1e-100

    def _analyze(self, confl: int, cur: int) -> tuple[list[int], int]:
        """First-UIP learning at the conflict's level cur, the highest
        level in confl. seen marks a variable 1 at level cur and 2 below it,
        so the trail walk passes over the lower ones that a mixed trail
        holds above the conflict level's literals; literals of higher
        levels are in no clause it resolves."""
        learnt = [0]  # slot 0 becomes the asserting literal
        seen = bytearray(self.num_vars + 1)
        arena = self.arena
        level = self.level
        reason = self.reason
        trail = self.trail
        learnts = self.learnts
        activity = self.activity
        pos = self._pos
        heap = self._heap
        var_inc = self.var_inc
        counter = 0
        idx = len(trail) - 1
        p = 0
        c = confl
        while True:
            if c in learnts:
                self._bump_cla(c)
            for k in range(c + 1 if p == 0 else c + 2, c + 1 + arena[c]):
                q = arena[k]
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    # bump v; a non-decision variable's activity is never read
                    if pos[v] != _UNORDERED:
                        act = activity[v] + var_inc
                        activity[v] = act
                        if act > _RESCALE_LIMIT:
                            self._rescale_var_activity()  # new heap and var_inc
                            heap = self._heap
                            var_inc = self.var_inc
                        else:
                            pos[v] = -1  # hot until the next rebuild
                            heappush(heap, (-act, v))
                    if level[v] >= cur:
                        seen[v] = 1
                        counter += 1
                    else:
                        seen[v] = 2
                        learnt.append(q)
            while seen[abs(trail[idx])] != 1:
                idx -= 1
            p = trail[idx]
            idx -= 1
            v = abs(p)
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            c = reason[v]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        mi = 1
        for k in range(2, len(learnt)):
            if level[abs(learnt[k])] > level[abs(learnt[mi])]:
                mi = k
        learnt[1], learnt[mi] = learnt[mi], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _record(self, learnt: list[int], lvl: int) -> None:
        """Learn the clause and assert learnt[0] at level lvl, the highest
        of its other literals: the top, or below it after a chronological
        backtrack."""
        c = None
        if len(learnt) > 1:
            c = self._attach(learnt)
            self.learnts[c] = self.cla_inc
        self._enqueue(learnt[0], c)
        self.level[abs(learnt[0])] = lvl

    # ------------------------------------------------------------------
    # branching

    def _pick_branch(self) -> int | None:
        """The next variable to decide, or None once every decision
        variable is assigned: now and then a random one, otherwise the
        unassigned decision variable of least (-activity, v). That is the
        lesser of the first unassigned, not hot variable from the pointer
        on and the top of the hot heap once its stale entries are dropped
        (an entry is stale once its variable is assigned or bumped again)."""
        value = self.value
        if self.num_vars > 0 and self.rng.random() < _RANDOM_DECISION_FREQ:
            v = self.rng.randint(1, self.num_vars)
            if value[v] == 0 and self._pos[v] != _UNORDERED:
                return v
        heap = self._heap
        act = self.activity
        while heap:
            na, v = heap[0]
            if value[v] == 0 and -na == act[v]:
                break
            heappop(heap)
        order = self._order
        pos = self._pos
        i = self._ptr
        end = len(order)
        while i < end:
            v = order[i]
            if value[v] == 0 and pos[v] >= 0:
                break
            i += 1
        self._ptr = i
        if i < end and (not heap or (-act[v], v) < heap[0]):
            return v
        return heappop(heap)[1] if heap else None

    # ------------------------------------------------------------------
    # learned-clause management

    def _reduce_db(self) -> None:
        self.stats["reductions"] += 1
        arena = self.arena
        reason = self.reason
        act = self.learnts
        target = len(act) // 2
        removed = 0
        kept: dict[int, float] = {}
        for c in sorted(act, key=act.__getitem__):
            size = arena[c]
            # a clause that is the reason of its first literal is locked
            if removed < target and size > 2 and reason[abs(arena[c + 1])] != c:
                arena[c] = -size
                self._garbage += size + 1
                removed += 1
            else:
                kept[c] = act[c]
        self.learnts = kept
        self._max_learnts *= 1.3
        if 2 * self._garbage > len(arena):
            self._compact()

    def _compact(self) -> None:
        """Drop deleted clauses from the arena, keeping the order of the
        live ones and of every watch list, and move every offset held in
        reasons, learnts and watches to the clause's new place."""
        arena = self.arena
        moved: dict[int, int] = {}
        out: list[int] = []
        c = 0
        while c < len(arena):
            size = arena[c]
            if size > 0:
                moved[c] = len(out)
                out += arena[c:c + 1 + size]
            c += abs(size) + 1
        self.arena = out
        self._garbage = 0
        self.watches = [ws if ws is None else [moved[d] for d in ws if d in moved]
                        for ws in self.watches]
        self.reason = [None if r is None else moved[r] for r in self.reason]
        self.learnts = {moved[c]: a for c, a in self.learnts.items()}

    # ------------------------------------------------------------------
    # search

    def solve(self, assumptions=(), budget: Budget | None = None
              ) -> tuple[Status, dict[int, bool] | None]:
        """Run CDCL until SAT, UNSAT, or the budget is exhausted.

        SAT comes with a total assignment over variables 1..num_vars that
        makes every assumption true; a non-decision variable that nothing
        set reads False in it. UNSAT is either a level-0 refutation,
        which is permanent, or a proof that the clauses and the assumptions
        cannot hold together, which leaves the solver usable. UNKNOWN is
        returned only when budget.exhausted() holds: on entry, after a
        conflict (each one is charged to budget.conflicts_left), or at
        every 1024th decision. Without a budget the call runs to an answer.
        """
        assumptions = [int(l) for l in assumptions]
        for l in assumptions:
            if l == 0:
                raise ValueError("0 is not a literal")
            self._ensure_var(abs(l))
        budget = budget or Budget()
        if budget.exhausted():
            return Status.UNKNOWN, None
        if not self.ok:
            return Status.UNSAT, None
        self._backtrack(0)
        self._maybe_rebuild_order()  # variables made since the last call are hot
        if self._propagate() is not None:
            self.ok = False
            return Status.UNSAT, None
        if self._max_learnts is None:  # see the module docstring
            watched = sum(len(ws) for ws in self.watches if ws)  # 2 per clause
            self._max_learnts = max(4000.0, float(watched))
        # the loop's state in locals: none of these lists is replaced while
        # it runs (_compact replaces arena, watches and reason only)
        trail = self.trail
        trail_lim = self.trail_lim
        value = self.value
        level = self.level
        phase = self.phase
        stats = self.stats
        propagate = self._propagate
        pick_branch = self._pick_branch
        n_assumed = len(assumptions)
        since_restart = 0
        restart_lim = 100.0
        while True:
            confl = propagate()
            if confl is not None:
                stats["conflicts"] += 1
                if budget.conflicts_left is not None:
                    budget.conflicts_left -= 1
                since_restart += 1
                if self._mixed < 0:
                    cl = len(trail_lim)  # both watches of confl are at the top
                else:  # the conflict's level is its clause's highest
                    arena = self.arena
                    cl = max([level[abs(q)]
                              for q in arena[confl + 1:confl + 1 + arena[confl]]])
                if not cl:
                    self.ok = False
                    return Status.UNSAT, None
                learnt, bt = self._analyze(confl, cl)
                if cl - bt > _CHRONO:  # keep the levels below the conflict's
                    self._backtrack(cl - 1)
                    self._mixed = bt if self._mixed < 0 else min(self._mixed, bt)
                else:
                    self._backtrack(bt)
                self._record(learnt, bt)
                self.var_inc *= self.var_decay_inv
                self.cla_inc *= self.cla_decay_inv
                if budget.exhausted():
                    return Status.UNKNOWN, None
                if since_restart >= restart_lim:
                    stats["restarts"] += 1
                    since_restart = 0
                    restart_lim *= 1.5
                    self._backtrack(0)
                if len(self.learnts) >= self._max_learnts + len(trail):
                    self._reduce_db()
                continue
            lit = 0
            while len(trail_lim) < n_assumed:
                p = assumptions[len(trail_lim)]
                pv = value[p]
                if pv == -1:
                    return Status.UNSAT, None
                if pv == 0:
                    lit = p
                    break
                trail_lim.append(len(trail))  # already true
            if lit == 0:
                v = pick_branch()
                if v is None:
                    model = {u: value[u] == 1 for u in range(1, self.num_vars + 1)}
                    return Status.SAT, model
                decisions = stats["decisions"] + 1
                stats["decisions"] = decisions
                if decisions & 1023 == 0 and budget.exhausted():
                    return Status.UNKNOWN, None
                lit = v if phase[v] else -v
            else:
                v = lit if lit > 0 else -lit
            # a new level and _enqueue(lit, None), inlined; reason[v] is
            # already None, as it is for every unassigned variable
            level[v] = len(trail_lim) + 1
            trail_lim.append(len(trail))
            value[lit] = 1
            value[-lit] = -1
            trail.append(lit)
