"""Incremental CDCL SAT backend.

A conflict-driven clause-learning solver with two-watched-literal
propagation, first-UIP learning, activity-ordered branching with phase
saving (default polarity false), geometric restarts, and activity-based
learned-clause deletion. Clauses can be added between solve calls; clauses
are never retracted, so the database only grows within a search episode.

A solve call may take assumptions (MiniSat style): literals that hold for
that call only. Assumption i is decided at level i+1 before any branching;
when one is already false at its turn the call returns UNSAT and the
solver stays usable, so a bound tried as an assumption is retracted simply
by not assuming it again. Learned clauses never depend on assumptions and
are kept across calls.

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


class Status(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


class Budget:
    """Wall-clock deadline (time.monotonic()), conflicts left and a
    cooperative stop callable, each None when unlimited. Every solve call
    it is passed to counts its conflicts against it, so one Budget bounds a
    whole sequence of calls. A timeout must be a number >= 0: a NaN one
    would never run out."""

    def __init__(self, timeout_s: float | None = None,
                 max_conflicts: int | None = None, stop=None):
        if timeout_s is not None and not timeout_s >= 0:
            raise ValueError(f"timeout must be >= 0, got {timeout_s!r}")
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


class _Clause:
    __slots__ = ("lits", "learnt", "activity", "deleted")

    def __init__(self, lits, learnt=False):
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0
        self.deleted = False


class SatSolver:
    """CDCL solver over variables 1..num_vars.

    Variables referenced beyond the current range auto-extend it. add_clause
    accepts any iterable of nonzero signed ints; tautologies are dropped and
    duplicate literals deduplicated. Adding the empty clause (or deriving a
    level-0 conflict) makes every future solve return UNSAT.
    """

    def __init__(self, num_vars: int = 0, seed: int = 0):
        self.num_vars = 0
        self.ok = True
        self.clauses: list[_Clause] = []
        self.learnts: list[_Clause] = []
        self.watches: dict[int, list[_Clause]] = {}
        # per-variable state, index 0 unused
        self.value = [0]        # 1 true, -1 false, 0 unassigned
        self.level = [0]
        self.reason: list[_Clause | None] = [None]
        self.phase = [False]    # saved polarity; default false
        self.activity = [0.0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self._heap: list[tuple[float, int]] = []
        self.var_inc = 1.0
        self.var_decay_inv = 1.0 / 0.95
        self.cla_inc = 1.0
        self.cla_decay_inv = 1.0 / 0.999
        self.rng = random.Random(seed)
        self._max_learnts: float | None = None
        self.stats = {"conflicts": 0, "decisions": 0, "restarts": 0, "reductions": 0}
        for _ in range(num_vars):
            self.new_var()

    # ------------------------------------------------------------------
    # variables and clauses

    def new_var(self) -> int:
        self.num_vars += 1
        v = self.num_vars
        self.value.append(0)
        self.level.append(0)
        self.reason.append(None)
        self.phase.append(False)
        self.activity.append(0.0)
        heappush(self._heap, (-0.0, v))
        return v

    def _ensure_var(self, v: int) -> None:
        while self.num_vars < v:
            self.new_var()

    def add_clause(self, lits) -> None:
        """Add a clause; no-op once the solver is in the UNSAT state."""
        if not self.ok:
            return
        seen: set[int] = set()
        out: list[int] = []
        for l in lits:
            l = int(l)
            if l == 0:
                raise ValueError("0 is not a literal")
            self._ensure_var(abs(l))
            if l in seen:
                continue
            if -l in seen:
                return  # tautology: always satisfied
            seen.add(l)
            out.append(l)
        self._backtrack(0)
        value = self.value
        reduced: list[int] = []
        for l in out:
            v = value[l] if l > 0 else -value[-l]
            if v == 1:
                return  # satisfied at level 0
            if v == -1:
                continue  # permanently false literal
            reduced.append(l)
        if not reduced:
            self.ok = False
            return
        if len(reduced) == 1:
            self._enqueue(reduced[0], None)
            if self._propagate() is not None:
                self.ok = False
            return
        c = _Clause(reduced)
        self.clauses.append(c)
        self.watches.setdefault(reduced[0], []).append(c)
        self.watches.setdefault(reduced[1], []).append(c)

    # ------------------------------------------------------------------
    # trail

    def _enqueue(self, lit: int, reason: _Clause | None) -> None:
        v = abs(lit)
        self.value[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _backtrack(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        lim = self.trail_lim[target]
        heap = self._heap
        act = self.activity
        for i in range(len(self.trail) - 1, lim - 1, -1):
            v = abs(self.trail[i])
            self.phase[v] = self.value[v] == 1
            self.value[v] = 0
            self.reason[v] = None
            heappush(heap, (-act[v], v))
        del self.trail[lim:]
        del self.trail_lim[target:]
        self.qhead = min(self.qhead, lim)

    # ------------------------------------------------------------------
    # propagation

    def _propagate(self) -> _Clause | None:
        watches = self.watches
        value = self.value
        trail = self.trail
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            false_lit = -p
            ws = watches.get(false_lit)
            if not ws:
                continue
            keep: list[_Clause] = []
            conflict = None
            for idx in range(len(ws)):
                c = ws[idx]
                if c.deleted:
                    continue
                lits = c.lits
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], false_lit
                first = lits[0]
                v0 = value[first] if first > 0 else -value[-first]
                if v0 == 1:
                    keep.append(c)
                    continue
                moved = False
                for k in range(2, len(lits)):
                    lk = lits[k]
                    vk = value[lk] if lk > 0 else -value[-lk]
                    if vk != -1:
                        lits[1] = lk
                        lits[k] = false_lit
                        watches.setdefault(lk, []).append(c)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(c)
                if v0 == -1:
                    keep.extend(ws[idx + 1:])
                    conflict = c
                    break
                self._enqueue(first, c)
            watches[false_lit] = keep
            if conflict is not None:
                self.qhead = len(trail)
                return conflict
        return None

    # ------------------------------------------------------------------
    # conflict analysis (first UIP)

    def _bump_var(self, v: int) -> None:
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        if act > _RESCALE_LIMIT:
            self._rescale_var_activity()
        else:
            heappush(self._heap, (-act, v))

    def _rescale_var_activity(self) -> None:
        for v in range(1, self.num_vars + 1):
            self.activity[v] *= 1e-100
        self.var_inc *= 1e-100
        self._heap = [(-self.activity[v], v)
                      for v in range(1, self.num_vars + 1) if self.value[v] == 0]
        self._heap.sort()

    def _bump_cla(self, c: _Clause) -> None:
        c.activity += self.cla_inc
        if c.activity > _RESCALE_LIMIT:
            for d in self.learnts:
                d.activity *= 1e-100
            self.cla_inc *= 1e-100

    def _analyze(self, confl: _Clause) -> tuple[list[int], int]:
        learnt = [0]  # slot 0 becomes the asserting literal
        seen = bytearray(self.num_vars + 1)
        level = self.level
        reason = self.reason
        trail = self.trail
        cur = len(self.trail_lim)
        counter = 0
        idx = len(trail) - 1
        p = 0
        c = confl
        while True:
            if c.learnt:
                self._bump_cla(c)
            lits = c.lits
            for k in range(0 if p == 0 else 1, len(lits)):
                q = lits[k]
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    self._bump_var(v)
                    if level[v] >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
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

    def _record(self, learnt: list[int]) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        c = _Clause(learnt, learnt=True)
        c.activity = self.cla_inc
        self.learnts.append(c)
        self.watches.setdefault(learnt[0], []).append(c)
        self.watches.setdefault(learnt[1], []).append(c)
        self._enqueue(learnt[0], c)

    # ------------------------------------------------------------------
    # branching

    def _pick_branch(self) -> int | None:
        value = self.value
        if self.num_vars > 0 and self.rng.random() < _RANDOM_DECISION_FREQ:
            v = self.rng.randint(1, self.num_vars)
            if value[v] == 0:
                return v
        heap = self._heap
        act = self.activity
        while heap:
            na, v = heappop(heap)
            if value[v] == 0 and -na == act[v]:
                return v
        return None

    # ------------------------------------------------------------------
    # learned-clause management

    def _locked(self, c: _Clause) -> bool:
        return self.reason[abs(c.lits[0])] is c

    def _reduce_db(self) -> None:
        self.stats["reductions"] += 1
        self.learnts.sort(key=lambda c: c.activity)
        target = len(self.learnts) // 2
        removed = 0
        kept: list[_Clause] = []
        for c in self.learnts:
            if removed < target and len(c.lits) > 2 and not self._locked(c):
                c.deleted = True
                removed += 1
            else:
                kept.append(c)
        self.learnts = kept
        self._max_learnts *= 1.3

    # ------------------------------------------------------------------
    # search

    def solve(self, assumptions=(), budget: Budget | None = None
              ) -> tuple[Status, dict[int, bool] | None]:
        """Run CDCL until SAT, UNSAT, or the budget is exhausted.

        SAT comes with a total assignment over variables 1..num_vars that
        makes every assumption true. UNSAT is either a level-0 refutation,
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
        if self._propagate() is not None:
            self.ok = False
            return Status.UNSAT, None
        if self._max_learnts is None:
            self._max_learnts = max(4000.0, 2.0 * len(self.clauses))
        since_restart = 0
        restart_lim = 100.0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.stats["conflicts"] += 1
                if budget.conflicts_left is not None:
                    budget.conflicts_left -= 1
                since_restart += 1
                if not self.trail_lim:
                    self.ok = False
                    return Status.UNSAT, None
                learnt, bt = self._analyze(confl)
                self._backtrack(bt)
                self._record(learnt)
                self.var_inc *= self.var_decay_inv
                self.cla_inc *= self.cla_decay_inv
                if budget.exhausted():
                    return Status.UNKNOWN, None
                if since_restart >= restart_lim:
                    self.stats["restarts"] += 1
                    since_restart = 0
                    restart_lim *= 1.5
                    self._backtrack(0)
                if len(self.learnts) >= self._max_learnts + len(self.trail):
                    self._reduce_db()
            else:
                lit = 0
                while len(self.trail_lim) < len(assumptions):
                    p = assumptions[len(self.trail_lim)]
                    pv = self.value[p] if p > 0 else -self.value[-p]
                    if pv == -1:
                        return Status.UNSAT, None
                    if pv == 0:
                        lit = p
                        break
                    self.trail_lim.append(len(self.trail))  # already true
                if lit == 0:
                    v = self._pick_branch()
                    if v is None:
                        model = {u: self.value[u] == 1
                                 for u in range(1, self.num_vars + 1)}
                        return Status.SAT, model
                    self.stats["decisions"] += 1
                    if self.stats["decisions"] & 1023 == 0 and budget.exhausted():
                        return Status.UNKNOWN, None
                    lit = v if self.phase[v] else -v
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
