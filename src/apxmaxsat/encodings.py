"""CNF encodings of the bounding constraints.

One encoder, the Generalized Totalizer (GTE), bounds a weighted sum of
literals. It is a balanced binary merge tree whose every node carries one
output literal per distinct reachable weighted sum up to max_bound, so the
encoding size is driven by the number of distinct sums rather than weight
magnitudes. In every model an output is implied true whenever the inputs
below it reach its sum.

"Weighted sum <= max_bound" holds as soon as the encoding is built. A leaf
heavier than max_bound gets the unit clause forbidding it. At a merge node,
each left sum sa that can pass max_bound has a cut, the least right sum
with sa + cut > max_bound, and each distinct cut t gets one rung variable
g_t, a threshold ladder over the right child's outputs: a right output at
or above the lowest rung implies the highest rung at or below its sum,
each rung implies the one below, and one binary clause forbids sa with its
cut's rung. That replaces one clause per overflowing pair of sums.
Asserting the negations of root outputs above B then enforces "weighted
sum <= B".

A GTE is built in two passes over the tree. The first computes every
node's sorted sums and adds up each node's charge, |L| + |R| + |L|*|R| for
children with |L| and |R| sums plus one per child whose inputs can pass
max_bound: the clauses it would emit if every overflowing pair had a clause
of its own. It raises EncodingTooLarge, before walking the node's pairs of
sums, once the total charge would pass MAX_GTE_CLAUSES. The ladder emits
fewer clauses than it is charged wherever more than a few pairs overflow.
Only then does the second pass create the variables and emit the clauses,
children first, so a refused encoding leaves its sink untouched. An
optional satcore.Budget is polled once per merge node in both passes and
once per row of a node's pairs while emitting; when it has run out the
build raises EncodingInterrupted.

Totalizer is the GTE's unit-weight case capped at the input count: one
root output o_j per count j, the unary cardinality counter, so asserting
the negation of o_{k+1}..o_n enforces "at most k inputs true".

Every output and rung variable the GTE creates is made with
new_var(decision=False): the inputs determine them, so a solver never
branches on them. Each clause above has at most one positive literal over
the created variables (the output or rung it implies), which is the
contract under which satcore.SatSolver reads an unset non-decision
variable as False and still returns a model of every clause. A sink that
does not branch, such as CnfBuffer, ignores the flag.

Bounds support incremental tightening only: they may decrease but never
relax, matching a linear search that only ever shrinks its target. An
encoding is tied to the solver (or clause sink) it was built into.
"""

from __future__ import annotations

from bisect import bisect_right

MAX_GTE_CLAUSES = 1 << 18


class EncodingTooLarge(ValueError):
    """The requested GTE is charged more than MAX_GTE_CLAUSES clauses."""


class EncodingInterrupted(Exception):
    """The budget ran out while a GTE was being built; the sink keeps the
    clauses emitted so far, none if it ran out while sizing."""


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


class GeneralizedTotalizer:
    """Weighted unary counter over (literal, positive weight) inputs.

    Root outputs live in self.sums as ascending (sum, literal) pairs for
    every distinct reachable sum <= max_bound, and the built encoding
    forbids every sum above max_bound. An encoding charged over
    MAX_GTE_CLAUSES raises EncodingTooLarge and leaves the sink untouched;
    a budget that runs out mid-build raises EncodingInterrupted.
    """

    def __init__(self, items, max_bound: int, sink, *, budget=None):
        pairs = [(int(l), int(w)) for l, w in items]
        if not pairs:
            raise ValueError("totalizer needs at least one input")
        if any(w < 1 for _, w in pairs):
            raise ValueError("weights must be >= 1")
        if max_bound < 0:
            raise ValueError("max_bound must be >= 0")
        self.max_bound = max_bound
        self.bound: int | None = None
        plan = self._plan(pairs, [0], budget)
        self.sums = self._emit(pairs, plan, sink, budget)

    def _plan(self, pairs, size, budget):
        """Pass 1 over the subtree on pairs: (its ascending sums <= max_bound,
        whether its inputs can pass max_bound, left plan, right plan). Adds
        each node's charge to size[0], and raises EncodingTooLarge before
        walking a node's pairs if that would pass the cap."""
        if len(pairs) == 1:
            w = pairs[0][1]
            if w > self.max_bound:
                return [], True, None, None
            return [w], False, None, None
        half = len(pairs) // 2
        left = self._plan(pairs[:half], size, budget)
        right = self._plan(pairs[half:], size, budget)
        _poll(budget)
        lsums, lover = left[0], left[1]
        rsums, rover = right[0], right[1]
        size[0] += len(lsums) + len(rsums) + len(lsums) * len(rsums) + lover + rover
        if size[0] > MAX_GTE_CLAUSES:
            raise EncodingTooLarge(f"encoding over {MAX_GTE_CLAUSES} clauses")
        reach = set(lsums)
        reach.update(rsums)
        for sa in lsums:
            fit = bisect_right(rsums, self.max_bound - sa)
            if not fit:
                break  # lsums ascend, so no later row fits either
            reach.update(map(sa.__add__, rsums[:fit]))
        over = lover or rover or bool(
            lsums and rsums and lsums[-1] + rsums[-1] > self.max_bound)
        return sorted(reach), over, left, right

    def _emit(self, pairs, plan, sink, budget):
        """Pass 2 over the subtree on pairs: create the planned outputs and
        rungs and emit the clauses, children first. Returns the subtree's
        (sum, literal) outputs."""
        sums, _, left, right = plan
        if left is None:
            lit = pairs[0][0]
            if not sums:  # heavier than max_bound on its own
                sink.add_clause([-lit])
                return []
            return [(sums[0], lit)]
        half = len(pairs) // 2
        lsums = self._emit(pairs[:half], left, sink, budget)
        rsums = self._emit(pairs[half:], right, sink, budget)
        _poll(budget)
        # row sa pairs with the right sums before its cut, the first index
        # whose sum takes sa + sb past max_bound; each distinct cut is a rung
        cuts = [bisect_right(right[0], self.max_bound - sa) for sa, _ in lsums]
        out = {s: sink.new_var(decision=False) for s in sums}
        rung = {j: sink.new_var(decision=False)
                for j in sorted(set(cuts)) if j < len(rsums)}
        # each child output is negated once, so every clause that holds it
        # shares one int object
        lneg = [(s, -l) for s, l in lsums]
        rneg = [(s, -l) for s, l in rsums]
        for s, nl in lneg:
            sink.add_clause([nl, out[s]])
        for s, nl in rneg:
            sink.add_clause([nl, out[s]])
        # rung j holds once the right sum reaches rsums[j]: each right output
        # implies the highest rung at or below it, and each rung the next
        # one down
        g = None
        for j, (_, nb) in enumerate(rneg):
            g = rung.get(j, g)
            if g is not None:
                sink.add_clause([nb, g])
        steps = list(rung)
        for lo, hi in zip(steps, steps[1:]):
            sink.add_clause([-rung[hi], rung[lo]])
        for (sa, na), fit in zip(lneg, cuts):
            _poll(budget)
            for sb, nb in rneg[:fit]:
                sink.add_clause([na, nb, out[sa + sb]])
            if fit < len(rneg):
                sink.add_clause([na, -rung[fit]])
        return [(s, out[s]) for s in sums]

    def set_bound(self, b: int, sink) -> None:
        """Enforce "weighted sum <= b". Tightening only; b <= max_bound."""
        if b < 0:
            raise ValueError("bound must be >= 0")
        if b > self.max_bound:
            raise ValueError(f"bound {b} exceeds encoding cap {self.max_bound}")
        if self.bound is not None and b >= self.bound:
            raise ValueError(f"bound can only tighten: {b} >= {self.bound}")
        upper = self.bound if self.bound is not None else self.max_bound
        for s, lit in self.sums:
            if b < s <= upper:
                sink.add_clause([-lit])
        self.bound = b


class Totalizer(GeneralizedTotalizer):
    """Unary cardinality counter over distinct input literals: the
    unit-weight GeneralizedTotalizer capped at the input count, with
    self.outputs[j-1] the root output for "at least j inputs true"."""

    def __init__(self, inputs, sink):
        lits = [int(l) for l in inputs]
        if len(set(lits)) != len(lits):
            raise ValueError("totalizer inputs must be distinct")
        super().__init__([(l, 1) for l in lits], len(lits), sink)
        self.outputs = [lit for _, lit in self.sums]
