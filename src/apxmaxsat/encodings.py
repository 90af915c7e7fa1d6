"""CNF encodings of the bounding constraints.

One encoder, the Generalized Totalizer (GTE), bounds a weighted sum of
literals. It is a balanced binary merge tree whose every node carries one
output literal per distinct reachable weighted sum, so the encoding size is
driven by the number of distinct sums rather than weight magnitudes. In
every model an output is implied true whenever the inputs below it reach
its sum. Sums above max_bound collapse into a single per-node overflow
output, capping node size. Asserting the negations of root outputs above B
(plus the overflow) enforces "weighted sum <= B".

Totalizer is the GTE's unit-weight case capped at the input count: one
root output o_j per count j, the unary cardinality counter, so asserting
the negation of o_{k+1}..o_n enforces "at most k inputs true".

Bounds support incremental tightening only: they may decrease but never
relax, matching a linear search that only ever shrinks its target. An
encoding is tied to the solver (or clause sink) it was built into.
"""

from __future__ import annotations


class CnfBuffer:
    """Minimal clause sink exposing the solver surface the encoders need
    (new_var/add_clause); collects clauses for DIMACS dumps and for
    enumeration-based tests."""

    def __init__(self, num_vars: int = 0):
        self.num_vars = num_vars
        self.clauses: list[tuple[int, ...]] = []

    def new_var(self) -> int:
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
    """

    def __init__(self, items, max_bound: int, sink):
        pairs = [(int(l), int(w)) for l, w in items]
        if not pairs:
            raise ValueError("totalizer needs at least one input")
        if any(w < 1 for _, w in pairs):
            raise ValueError("weights must be >= 1")
        if max_bound < 0:
            raise ValueError("max_bound must be >= 0")
        self.max_bound = max_bound
        self.bound: int | None = None
        self.sums, self.overflow = self._build(pairs, sink)

    def _build(self, pairs, sink):
        if len(pairs) == 1:
            lit, w = pairs[0]
            if w > self.max_bound:
                return [], lit
            return [(w, lit)], None
        half = len(pairs) // 2
        lsums, lover = self._build(pairs[:half], sink)
        rsums, rover = self._build(pairs[half:], sink)
        reach = {s for s, _ in lsums} | {s for s, _ in rsums}
        need_over = lover is not None or rover is not None
        for sa, _ in lsums:
            for sb, _ in rsums:
                t = sa + sb
                if t > self.max_bound:
                    need_over = True
                else:
                    reach.add(t)
        out = {s: sink.new_var() for s in sorted(reach)}
        over = sink.new_var() if need_over else None
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
            for sb, nb in rneg:
                t = sa + sb
                sink.add_clause([na, nb, out[t] if t <= self.max_bound else over])
        return [(s, out[s]) for s in sorted(reach)], over

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
