"""CNF encodings of the bounding constraints.

One encoder, the Generalized Totalizer (GTE), bounds a weighted sum of
literals from above. Below its root it is a balanced binary merge tree
whose every node carries one output literal per distinct reachable weighted
sum up to max_bound, so the encoding size is driven by the number of
distinct sums rather than weight magnitudes. In every model an output is
implied true whenever the inputs below it reach its sum.

"Weighted sum <= max_bound" holds as soon as the encoding is built. A leaf
heavier than max_bound gets the unit clause forbidding it. At a merge node,
each left sum sa that can pass max_bound has a cut, the least right sum
with sa + cut > max_bound, and each distinct cut t gets one rung variable
g_t, a threshold ladder over the right child's outputs: a right output at
or above the lowest rung implies the highest rung at or below its sum,
each rung implies the one below, and one binary clause forbids sa with its
cut's rung. That replaces one clause per overflowing pair of sums.

The root has no outputs, since a linear search asks it one question only:
is the sum at most B? Its order variables are the same ladder over its
right child with a rung at every right sum: u_j, "the right sum reaches
rsums[j]", tied to the child by [-b_j, u_j] and [-u_j, u_(j-1)], one ladder
routine serving the root and every merge node. "Sum <= B" is a staircase of
one clause per left sum sa, 0 included: [-a_sa, -u_cut] with cut the least
j such that sa + rsums[j] > B, or [-a_sa] when sa > B alone (no clause when
no right sum passes B). Unit propagation on it matches that of a root with
one output per sum whose outputs above B are negated. The build emits the
staircase for max_bound, set_bound(b) the rows that change at b, for good,
and at_most(b) the same rows guarded by a fresh selector literal, so a
bound can be tried and retracted. A lone input is the root's left child,
with no right one.

A GTE is built in two passes. The first, plan_gte, is the only walk of the
input tree: it computes every node's sorted sums and cuts, and adds up each
node's charge, the clauses the second pass will emit for it. It raises
EncodingTooLarge, before walking a node's pairs of sums, once the total
charge would pass MAX_GTE_CLAUSES. Its GtePlan is the tree, each leaf
holding its literal, so the second pass walks the plan alone: only then are
the variables created and the clauses emitted, children first, so a refused
encoding leaves its sink untouched. The charge is the only prediction of an
encoding's size, and a complete build emits exactly it; the GTE keeps no
count of its own, and a sink that wants one counts what it receives
(satcore.SatSolver.clauses_added). A caller can size an encoding before
deciding to build it, and a build handed the plan does not size it again.
An optional satcore.Budget is polled once per merge node in both passes and
once per row of a node's pairs while emitting; when it has run out the
build raises EncodingInterrupted.

Totalizer is the GTE's unit-weight case capped at the input count, so
set_bound(k) enforces "at most k inputs true".

A GTE built with a guard literal g bounds its sum only while g holds:
every clause that forbids a sum (a heavy leaf's unit, a rung's cut, the
build's staircase and the rows set_bound and at_most add) carries -g,
while the clauses that define outputs, rungs and order variables do not,
since they hold in every model. Assume g to search under the bound and add
[-g] to retire it for good; the clauses, and those a solver learns from
them, then allow every input assignment. The search bounds a floored
objective that way, which is no bound on the true one (see search).

Every variable the GTE creates (outputs, rungs, order variables and
selectors), and the search's guard, is made with new_var(decision=False):
the inputs or an assumption determine them, so a solver never branches on
them. Each clause above has at most one positive literal over the created
variables (the output, rung or order variable it implies; a staircase
clause has none, and a guard or selector appears only negated), which is
the contract under which satcore.SatSolver reads an unset
non-decision variable as False and still returns a model of every clause.
A sink that does not branch, such as CnfBuffer, ignores the flag.

set_bound supports incremental tightening only: a frozen bound may
decrease but never relax, matching a linear search that only ever shrinks
its target. An encoding is tied to the solver (or clause sink) it was
built into.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

MAX_GTE_CLAUSES = 1 << 18


class EncodingTooLarge(ValueError):
    """The requested GTE is charged more than MAX_GTE_CLAUSES clauses."""


class EncodingInterrupted(Exception):
    """The budget ran out while a GTE was being sized or built; the sink
    keeps the clauses emitted so far, none if it ran out while sizing."""


def _poll(budget) -> None:
    if budget is not None and budget.exhausted():
        raise EncodingInterrupted("budget exhausted while encoding")


class CnfBuffer:
    """Minimal clause sink exposing the solver surface the encoders need
    (new_var/add_clause); collects clauses for DIMACS dumps and for
    enumeration-based tests."""

    def __init__(self, num_vars: int = 0):
        self.num_vars = num_vars
        self.clauses: list[tuple[int, ...]] = []

    def new_var(self, decision: bool = True) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits) -> None:
        self.clauses.append(tuple(int(l) for l in lits))

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for c in self.clauses:
            lines.append(" ".join(map(str, c)) + " 0")
        return "\n".join(lines) + "\n"


class GtePlan(NamedTuple):
    """A GTE sized by plan_gte and not yet built: its cap, its charge (the
    clauses a complete build emits) and the plans of the root's two
    subtrees, right None for a lone input. A leaf's plan is (its sums <=
    max_bound, its literal): ([weight], lit), or ([], lit) when the weight
    alone passes max_bound. A merge node's is (its ascending sums <=
    max_bound, the cut of each left sum, left plan, right plan)."""

    max_bound: int
    charge: int
    left: tuple
    right: tuple | None


def plan_gte(items, max_bound: int, budget=None) -> GtePlan:
    """Pass 1 of a GTE over (literal, positive weight) items capped at
    max_bound: size it without creating a variable or emitting a clause.
    Raises ValueError on bad input, EncodingTooLarge once the charge would
    pass MAX_GTE_CLAUSES and EncodingInterrupted when the budget runs out."""
    pairs = [(int(l), int(w)) for l, w in items]
    if not pairs:
        raise ValueError("totalizer needs at least one input")
    if any(w < 1 for _, w in pairs):
        raise ValueError("weights must be >= 1")
    if max_bound < 0:
        raise ValueError("max_bound must be >= 0")
    # the root's children; a lone input is a left child without a sibling
    half = len(pairs) // 2 or 1
    size = [0]
    left = _plan(pairs[:half], max_bound, size, budget)
    right = _plan(pairs[half:], max_bound, size, budget) if pairs[half:] else None
    _poll(budget)
    # the order variables' ladder, and a staircase row for each left sum, 0
    # included, that some right sum takes past max_bound: the ascending rows
    # above max_bound - rsums[-1]
    rsums = right[0] if right else []
    nr = len(rsums)
    rows = [0] + left[0]
    _charge(size, _ladder_size(nr, range(nr)) + (
        len(rows) - bisect_right(rows, max_bound - rsums[-1]) if rsums else 0))
    return GtePlan(max_bound, size[0], left, right)


def _charge(size, clauses) -> None:
    """Add a node's clauses to size[0]; raise EncodingTooLarge if the total
    passes the cap."""
    size[0] += clauses
    if size[0] > MAX_GTE_CLAUSES:
        raise EncodingTooLarge(f"encoding over {MAX_GTE_CLAUSES} clauses")


def _steps(cuts, nr) -> list[int]:
    """A merge node's rungs: the distinct cuts of its left sums that some
    of its nr right sums reach, ascending."""
    return sorted({j for j in cuts if j < nr})


def _ladder_size(nr, steps) -> int:
    """The clauses _ladder emits over nr right outputs with rungs at the
    ascending indices steps."""
    return nr - steps[0] + len(steps) - 1 if steps else 0


def _ladder(rneg, steps, sink) -> list:
    """A threshold ladder over a child's (sum, negated output) pairs rneg,
    ascending, with a rung at each of the ascending indices steps: rung j
    holds once the child's sum reaches rneg[j]'s. Each output from the
    lowest rung up implies the highest rung at or below it, and each rung
    the one below. Returns the rungs by index, None where there is none."""
    rung = [None] * len(rneg)
    for j in steps:
        rung[j] = sink.new_var(decision=False)
    if steps:
        g = None
        for j in range(steps[0], len(rneg)):
            g = rung[j] or g
            sink.add_clause([rneg[j][1], g])
    for lo, hi in zip(steps, steps[1:]):
        sink.add_clause([-rung[hi], rung[lo]])
    return rung


def _plan(pairs, max_bound, size, budget):
    """The plan of the subtree on pairs (see GtePlan). Adds each node's
    charge to size[0], and raises EncodingTooLarge before walking a node's
    pairs if that would pass the cap."""
    if len(pairs) == 1:
        lit, w = pairs[0]
        if w > max_bound:
            _charge(size, 1)  # the unit forbidding it
            return [], lit
        return [w], lit
    half = len(pairs) // 2
    left = _plan(pairs[:half], max_bound, size, budget)
    right = _plan(pairs[half:], max_bound, size, budget)
    _poll(budget)
    lsums, rsums = left[0], right[0]
    nr = len(rsums)
    # row sa pairs with the right sums before its cut, the first index
    # whose sum takes sa past max_bound, and forbids sa with the cut's rung
    cuts = [0] * len(lsums)
    for i, sa in enumerate(lsums):
        fit = bisect_right(rsums, max_bound - sa)
        if not fit:
            break  # lsums ascend, so every later cut is 0 too
        cuts[i] = fit
    _charge(size, len(lsums) + nr + _ladder_size(nr, _steps(cuts, nr))
            + sum(j + (j < nr) for j in cuts))
    reach = set(lsums)
    reach.update(rsums)
    for sa, fit in zip(lsums, cuts):
        if not fit:
            break  # lsums ascend, so no later row fits either
        reach.update(map(sa.__add__, rsums[:fit]))
    return sorted(reach), cuts, left, right


class GeneralizedTotalizer:
    """Weighted unary counter over (literal, positive weight) inputs,
    bounded from above.

    The built encoding forbids every weighted sum above max_bound;
    set_bound(b) forbids every sum above b for good, and at_most(b)
    returns a selector literal under which sums above b are forbidden;
    with a guard literal, each of these holds only while the guard does.
    plan is plan_gte(items, max_bound)'s result when the caller sized the
    encoding already. An encoding charged over MAX_GTE_CLAUSES raises
    EncodingTooLarge and leaves the sink untouched; a budget that runs out
    mid-build raises EncodingInterrupted.
    """

    def __init__(self, items, max_bound: int, sink, *, budget=None, plan=None,
                 guard: int | None = None):
        if plan is None:
            plan = plan_gte(items, max_bound, budget)
        elif plan.max_bound != max_bound:
            raise ValueError(f"plan capped at {plan.max_bound}, not {max_bound}")
        self.max_bound = max_bound
        self.bound: int | None = None
        # prepended to every clause that forbids a sum
        self._guard = [] if guard is None else [-guard]
        lneg = self._emit(plan.left, sink, budget)
        rneg = self._emit(plan.right, sink, budget) if plan.right else []
        _poll(budget)
        # the staircase's rows: every left sum, 0 (no literal) included
        self._rows = [(0, None)] + lneg
        self._rsums = [s for s, _ in rneg]
        # u[j]: the right sum reaches rsums[j]
        self._u = _ladder(rneg, range(len(rneg)), sink)
        # no row or right sum passes max_bound, so nothing is frozen below
        # twice that yet
        self._staircase(max_bound, 2 * max_bound, sink, self._guard)

    def _emit(self, plan, sink, budget):
        """Pass 2 over plan's subtree: create the planned outputs and rungs
        and emit the clauses, children first. Returns the subtree's outputs
        as (sum, negated literal) pairs, so every clause that holds one
        shares one int object."""
        if len(plan) == 2:  # a leaf
            sums, lit = plan
            if not sums:  # heavier than max_bound on its own
                sink.add_clause(self._guard + [-lit])
                return []
            return [(sums[0], -lit)]
        sums, cuts, left, right = plan
        lneg = self._emit(left, sink, budget)
        rneg = self._emit(right, sink, budget)
        _poll(budget)
        nr = len(rneg)
        out = {s: sink.new_var(decision=False) for s in sums}
        for s, nl in lneg:
            sink.add_clause([nl, out[s]])
        for s, nl in rneg:
            sink.add_clause([nl, out[s]])
        rung = _ladder(rneg, _steps(cuts, nr), sink)
        for (sa, na), fit in zip(lneg, cuts):
            _poll(budget)
            for sb, nb in rneg[:fit]:
                sink.add_clause([na, nb, out[sa + sb]])
            if fit < nr:
                sink.add_clause(self._guard + [na, -rung[fit]])
        return [(s, -out[s]) for s in sums]

    def _staircase(self, b, since, sink, guard) -> None:
        """Emit, each after the literals of guard, the clauses of "sum <= b"
        that the staircase for since >= b lacks. Row sa gets [-a_sa] if
        sa > b, else [-a_sa, -u[cut]] with cut the least right index whose
        sum takes sa past b, if there is one."""
        rsums, u = self._rsums, self._u
        for sa, na in self._rows:
            if sa > since:
                break  # rows ascend: this one and the rest are forbidden already
            if sa > b:
                clause = [na]
            else:
                cut = bisect_right(rsums, b - sa)
                if cut == bisect_right(rsums, since - sa):
                    continue  # the same clause, or none at all
                clause = [-u[cut]] if na is None else [na, -u[cut]]
            sink.add_clause(guard + clause)

    def _check(self, b: int) -> None:
        if b < 0:
            raise ValueError("bound must be >= 0")
        if b > self.max_bound:
            raise ValueError(f"bound {b} exceeds encoding cap {self.max_bound}")

    def set_bound(self, b: int, sink) -> None:
        """Enforce "weighted sum <= b" for good. Tightening only;
        b <= max_bound."""
        self._check(b)
        if self.bound is not None and b >= self.bound:
            raise ValueError(f"bound can only tighten: {b} >= {self.bound}")
        self._staircase(b, self._frozen(), sink, self._guard)
        self.bound = b

    def at_most(self, b: int, sink) -> int:
        """A fresh selector literal t with "t implies weighted sum <= b";
        0 <= b <= max_bound. Assume t to search under the bound, then add
        [-t] to retire it or [t] to keep the bound."""
        self._check(b)
        t = sink.new_var(decision=False)
        frozen = self._frozen()
        self._staircase(min(b, frozen), frozen, sink, self._guard + [-t])
        return t

    def _frozen(self) -> int:
        """The bound every model obeys: the last set_bound, else max_bound."""
        return self.bound if self.bound is not None else self.max_bound


class Totalizer(GeneralizedTotalizer):
    """Unary cardinality counter over distinct input literals: the
    unit-weight GeneralizedTotalizer capped at the input count, so that
    set_bound(k) enforces "at most k inputs true"."""

    def __init__(self, inputs, sink):
        lits = [int(l) for l in inputs]
        if len(set(lits)) != len(lits):
            raise ValueError("totalizer inputs must be distinct")
        super().__init__([(l, 1) for l in lits], len(lits), sink)
