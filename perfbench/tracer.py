"""Per-layer tracing for the solve benchmark, from outside the program.

Tracer.installed() wraps the public entry points of each apxmaxsat layer
(wcnf, clustering, encodings, satcore, search) and records a span for every
call made while a solve is open: [name, start, end, parent, solve id,
seconds covered by children, attrs]. SatSolver.add_clause is too frequent
for a span of its own; its calls and seconds are added to the enclosing
span instead, and count as satcore time. Spans stay in memory until
write_spans() at the end of a run. CLI children record their spans with
child.py and the benchmark adopts them into its own tracer.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, SOLVE, CHILD_S, ATTRS = range(7)
LAYERS = ("wcnf", "clustering", "encodings", "satcore", "search", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.solve_id: int | None = None  # wrappers record only inside a solve

    # ------------------------------------------------------------------
    # spans

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.monotonic(), None, parent, self.solve_id, 0.0, {}])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = time.monotonic()
        self._stack.pop()
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD_S] += span[END] - span[START]

    @contextmanager
    def solve(self, solve_id: int, name: str):
        """Open the root span of one solve; yields its index."""
        self.solve_id = solve_id
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)
            self.solve_id = None

    def adopt(self, spans: list[list], parent: int, solve_id: int) -> None:
        """Append spans recorded by a child process under span `parent`."""
        base = len(self.spans)
        for span in spans:
            span = list(span)
            if span[PARENT] is None:
                span[PARENT] = parent
                self.spans[parent][CHILD_S] += span[END] - span[START]
            else:
                span[PARENT] += base
            span[SOLVE] = solve_id
            self.spans.append(span)

    # ------------------------------------------------------------------
    # wrappers

    def _patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.solve_id is None:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer.spans[idx][ATTRS], args, result, state)
            return result

        setattr(owner, attr, wrapper)

    def _patch_add_clause(self, cls) -> None:
        fn = cls.add_clause
        self._saved.append((cls, "add_clause", fn))
        tracer = self

        def add_clause(solver, lits):
            if tracer.solve_id is None:
                return fn(solver, lits)
            started = time.monotonic()
            fn(solver, lits)
            took = time.monotonic() - started
            span = tracer.spans[tracer._stack[-1]]
            span[CHILD_S] += took
            attrs = span[ATTRS]
            attrs["clauses"] = attrs.get("clauses", 0) + 1
            attrs["add_clause_s"] = attrs.get("add_clause_s", 0.0) + took

        cls.add_clause = add_clause

    @contextmanager
    def installed(self):
        """Wrap the layer entry points; restore the originals on exit."""
        from apxmaxsat import clustering, search, wcnf
        from apxmaxsat.encodings import GeneralizedTotalizer, Totalizer
        from apxmaxsat.satcore import SatSolver

        def grown(sink_pos):
            def after(attrs, args, result, before):
                attrs["vars"] = args[sink_pos].num_vars - before
            return after

        def solver_stats(args):
            stats = args[0].stats
            return stats["conflicts"], stats["decisions"]

        def solve_done(attrs, args, result, before):
            stats = args[0].stats
            attrs["conflicts"] = stats["conflicts"] - before[0]
            attrs["decisions"] = stats["decisions"] - before[1]
            attrs["status"] = result[0].value

        def parsed(attrs, args, result, state):
            attrs["parsed"] = len(result.hard) + len(result.soft)

        def searched(attrs, args, result, state):
            attrs["improvements"] = len(result.trace)

        self._patch(wcnf, "parse_wcnf", "wcnf.parse", after=parsed)
        self._patch(wcnf, "relax", "wcnf.relax")
        self._patch(wcnf, "cost", "wcnf.cost")
        self._patch(clustering, "partition", "clustering.partition")
        self._patch(GeneralizedTotalizer, "__init__", "encodings.gte_build",
                    before=lambda a: a[3].num_vars, after=grown(3))
        self._patch(GeneralizedTotalizer, "set_bound", "encodings.set_bound")
        self._patch(Totalizer, "__init__", "encodings.totalizer_build",
                    before=lambda a: a[2].num_vars, after=grown(2))
        self._patch(Totalizer, "set_bound", "encodings.set_bound")
        self._patch(SatSolver, "__init__", "satcore.init")
        self._patch(SatSolver, "solve", "satcore.solve",
                    before=solver_stats, after=solve_done)
        self._patch_add_clause(SatSolver)
        self._patch(search, "solve", "search.solve", after=searched)
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, fn = self._saved.pop()
                setattr(owner, attr, fn)

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span[NAME], "start": span[START], "end": span[END],
                    "parent": span[PARENT], "solve": span[SOLVE],
                    "self_s": span[END] - span[START] - span[CHILD_S],
                    **span[ATTRS]}) + "\n")


def summarize(spans: list[list], solve_ids: set[int], exact_ids: set[int],
              passes: int) -> dict[str, float]:
    """Per-layer metrics over the spans of the given solves, per pass.

    Build and set_bound times include the clauses they add to the solver;
    the share.* metrics use self times, so each second counts in one layer.
    Root spans (one per solve) give the wall time the shares divide."""
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    by_name_attr: dict[tuple[str, str], float] = {}
    wall = exact_wall = exact_gte = 0.0
    unknown = 0
    for span in spans:
        if span[SOLVE] not in solve_ids:
            continue
        name = span[NAME]
        took = span[END] - span[START]
        attrs = span[ATTRS]
        totals[name] = totals.get(name, 0.0) + took
        counts[name] = counts.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        if layer in self_s:
            self_s[layer] += took - span[CHILD_S]
        for key, value in attrs.items():
            if key == "status":
                unknown += value == "UNKNOWN"
            else:
                by_name_attr[name, key] = by_name_attr.get((name, key), 0) + value
        if span[PARENT] is None:
            wall += took
            if span[SOLVE] in exact_ids:
                exact_wall += took
        if name == "encodings.gte_build" and span[SOLVE] in exact_ids:
            exact_gte += took
    add_clause_s = sum(v for (_, key), v in by_name_attr.items() if key == "add_clause_s")
    add_clause_calls = sum(v for (_, key), v in by_name_attr.items() if key == "clauses")
    self_s["satcore"] += add_clause_s

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    parse_s = totals.get("wcnf.parse", 0.0)
    sat_s = totals.get("satcore.solve", 0.0)
    sat_calls = counts.get("satcore.solve", 0)
    conflicts = by_name_attr.get(("satcore.solve", "conflicts"), 0)
    decisions = by_name_attr.get(("satcore.solve", "decisions"), 0)
    improvements = by_name_attr.get(("search.solve", "improvements"), 0)
    out = {
        "wcnf.parse_s": per_pass(parse_s),
        "wcnf.parse_clauses_per_s": ratio(by_name_attr.get(("wcnf.parse", "parsed"), 0), parse_s),
        "wcnf.cost_s": per_pass(totals.get("wcnf.cost", 0.0)),
        "wcnf.cost_calls": per_pass(counts.get("wcnf.cost", 0)),
        "clustering.partition_s": per_pass(totals.get("clustering.partition", 0.0)),
        "encodings.gte_build_s": per_pass(totals.get("encodings.gte_build", 0.0)),
        "encodings.gte_builds": per_pass(counts.get("encodings.gte_build", 0)),
        "encodings.gte_clauses": per_pass(by_name_attr.get(("encodings.gte_build", "clauses"), 0)),
        "encodings.gte_vars": per_pass(by_name_attr.get(("encodings.gte_build", "vars"), 0)),
        "encodings.set_bound_s": per_pass(totals.get("encodings.set_bound", 0.0)),
        "encodings.totalizer_build_s": per_pass(totals.get("encodings.totalizer_build", 0.0)),
        "encodings.totalizer_builds": per_pass(counts.get("encodings.totalizer_build", 0)),
        "encodings.totalizer_clauses": per_pass(
            by_name_attr.get(("encodings.totalizer_build", "clauses"), 0)),
        "satcore.solvers_built": per_pass(counts.get("satcore.init", 0)),
        "satcore.add_clause_s": per_pass(add_clause_s),
        "satcore.add_clause_calls": per_pass(add_clause_calls),
        "satcore.solve_s": per_pass(sat_s),
        "satcore.solve_calls": per_pass(sat_calls),
        "satcore.solve_unknown_calls": per_pass(unknown),
        "satcore.conflicts": per_pass(conflicts),
        "satcore.decisions": per_pass(decisions),
        "satcore.conflicts_per_s": ratio(conflicts, sat_s),
        "satcore.decisions_per_s": ratio(decisions, sat_s),
        "search.self_s": per_pass(self_s["search"]),
        "search.improvements": per_pass(improvements),
        "search.improvements_per_sat_call": ratio(improvements, sat_calls),
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = ratio(self_s[layer], wall)
    out["exact.wall_share"] = ratio(exact_wall, wall)
    out["exact.gte_build_share"] = ratio(exact_gte, exact_wall)
    return out
