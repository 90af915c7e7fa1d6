"""CNF encodings of the bounding constraints.

One encoder, the Generalized Totalizer (GTE), bounds a weighted sum of
literals. It is a balanced binary merge tree whose every node carries one
output literal per distinct reachable weighted sum, so the encoding size is
driven by the number of distinct sums rather than weight magnitudes. In
every model an output is implied true whenever the inputs below it reach
its sum. Sums above max_bound collapse into a single per-node overflow
output, capping node size. Asserting the negations of root outputs above B
(plus the overflow) enforces "weighted sum <= B".

A GTE is built in two passes over the tree. The first computes every
node's sorted sums and adds up the clauses the node will emit, |L| + |R| +
|L|*|R| for children with |L| and |R| sums plus one per child overflow; it
raises EncodingTooLarge, before walking the node's pairs of sums, once the
total would pass MAX_GTE_CLAUSES. Only then does the second pass create the
variables and emit the clauses, children first, so a refused encoding
leaves its sink untouched. An optional satcore.Budget is polled once per
merge node in both passes and once per row of a node's pairs while
emitting; when it has run out the build raises EncodingInterrupted.

Totalizer is the GTE's unit-weight case capped at the input count: one
root output o_j per count j, the unary cardinality counter, so asserting
the negation of o_{k+1}..o_n enforces "at most k inputs true".

Every output and overflow variable the GTE creates is made with
new_var(decision=False): the inputs determine the outputs, so a solver
never branches on them. Each clause above has exactly one positive literal
over the created variables (the output or overflow it implies), and each
bound clause has none, which is the contract under which satcore.SatSolver
reads an unset non-decision variable as False and still returns a model of
every clause. A sink that does not branch, such as CnfBuffer, ignores the
flag.

Bounds support incremental tightening only: they may decrease but never
relax, matching a linear search that only ever shrinks its target. An
encoding is tied to the solver (or clause sink) it was built into.
"""

from __future__ import annotations

from bisect import bisect_right

MAX_GTE_CLAUSES = 1 << 18


class EncodingTooLarge(ValueError):
    """The requested GTE would emit more than MAX_GTE_CLAUSES clauses."""


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
    every distinct reachable sum <= max_bound; self.overflow is the root's
    collapsed ">max_bound" output, or None when no sum can exceed max_bound.
    An encoding over MAX_GTE_CLAUSES raises EncodingTooLarge and leaves the
    sink untouched; a budget that runs out mid-build raises
    EncodingInterrupted.
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
        self.sums, self.overflow = self._emit(pairs, plan, sink, budget)

    def _plan(self, pairs, size, budget):
        """Pass 1 over the subtree on pairs: (its ascending sums <= max_bound,
        whether it has an overflow output, left plan, right plan). Adds the
        clauses each node will emit to size[0], and raises EncodingTooLarge
        before walking a node's pairs if that would pass the cap."""
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
        need_over = lover or rover or bool(
            lsums and rsums and lsums[-1] + rsums[-1] > self.max_bound)
        return sorted(reach), need_over, left, right

    def _emit(self, pairs, plan, sink, budget):
        """Pass 2 over the subtree on pairs: create the planned outputs and
        emit the clauses, children first. Returns the subtree's (sum,
        literal) outputs and its overflow literal or None."""
        sums, need_over, left, right = plan
        if left is None:
            lit = pairs[0][0]
            return ([(sums[0], lit)], None) if sums else ([], lit)
        half = len(pairs) // 2
        lsums, lover = self._emit(pairs[:half], left, sink, budget)
        rsums, rover = self._emit(pairs[half:], right, sink, budget)
        _poll(budget)
        out = {s: sink.new_var(decision=False) for s in sums}
        over = sink.new_var(decision=False) if need_over else None
        # each child output is negated once, so every clause that holds it
        # shares one int object
        lneg = [(s, -l) for s, l in lsums]
        rneg = [(s, -l) for s, l in rsums]
        for s, nl in lneg:
            sink.add_clause([nl, out[s]])
        for s, nl in rneg:
            sink.add_clause([nl, out[s]])
        if lover is not None:
            sink.add_clause([-lover, over])
        if rover is not None:
            sink.add_clause([-rover, over])
        for sa, na in lneg:
            _poll(budget)
            for sb, nb in rneg:
                t = sa + sb
                sink.add_clause([na, nb, out[t] if t <= self.max_bound else over])
        return [(s, out[s]) for s in sums], over

    def set_bound(self, b: int, sink) -> None:
        """Enforce "weighted sum <= b". Tightening only; b <= max_bound."""
        if b < 0:
            raise ValueError("bound must be >= 0")
        if b > self.max_bound:
            raise ValueError(f"bound {b} exceeds encoding cap {self.max_bound}")
        if self.bound is not None and b >= self.bound:
            raise ValueError(f"bound can only tighten: {b} >= {self.bound}")
        if self.bound is None and self.overflow is not None:
            sink.add_clause([-self.overflow])
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
