"""Weighted CNF data model.

Literals are signed DIMACS integers: variable ids are positive ints, and a
negative literal is the negation of its variable. A formula splits into hard
clauses (must hold) and soft clauses, each carrying a positive integer
weight; the cost of an assignment is the summed weight of the soft clauses
it leaves unsatisfied.

Input format is old-style WDIMACS only: a `p wcnf <vars> <clauses> <top>`
header, one clause per line as `<weight> <lit>... 0`, where weight == top
marks a hard clause. The 2022 `h`-prefixed format is rejected.

Clauses are frozen, slotted dataclasses: no per-clause __dict__, so a large
formula is smaller and every full garbage collection walks it faster. The
parser converts each token of a clause line to int once and makes each
clause without the frozen __init__. A line of three distinct nonzero
literals, the common case, takes a short branch that skips the general
path's list, set and zero checks; it yields exactly the clause the general
path would, and any other line, malformed ones included, goes the general
way, so every error and its line number stay the same.

Formulas are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import chain, count


class WcnfParseError(ValueError):
    """Malformed WDIMACS input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, slots=True)
class Clause:
    """Disjunction of literals, deduplicated preserving first occurrence.

    A clause holding both a literal and its negation is kept as written;
    satisfied_by holds for it under every assignment, so it never adds cost.
    """

    lits: tuple[int, ...]

    @classmethod
    def of(cls, lits) -> "Clause":
        """Raises ValueError on a 0 among lits or on no lits at all."""
        out = tuple(dict.fromkeys(map(int, lits)))
        if 0 in out:
            raise ValueError("literal 0 mid-clause")
        if not out:
            raise ValueError("empty clause")
        return cls(out)

    def satisfied_by(self, assignment) -> bool:
        return any(assignment[abs(l)] == (l > 0) for l in self.lits)


def _max_var(clauses) -> int:
    """Largest variable in any of the clauses, 0 when there are none."""
    return max(map(abs, chain.from_iterable(c.lits for c in clauses)), default=0)


@dataclass
class WcnfFormula:
    """A weighted partial CNF instance.

    soft holds (clause, weight) pairs in input order; the soft-clause index
    is its stable identity. Duplicate soft clauses stay distinct (weights are
    never merged). Weights are plain Python ints, so arbitrary-precision
    totals are exact. A clause variable above num_vars raises ValueError,
    unless grow_vars is set: then num_vars grows to the largest variable,
    found in the same walk over the literals.
    """

    num_vars: int
    hard: list[Clause]
    soft: list[tuple[Clause, int]]
    warnings: list[str] = field(default_factory=list, compare=False)
    grow_vars: InitVar[bool] = False

    def __post_init__(self, grow_vars):
        hard_top = _max_var(self.hard)
        soft_top = _max_var(c for c, _ in self.soft)
        if grow_vars:
            self.num_vars = max(self.num_vars, hard_top, soft_top)
        if hard_top > self.num_vars:
            raise ValueError("hard clause variable exceeds num_vars")
        if soft_top > self.num_vars:
            raise ValueError("soft clause variable exceeds num_vars")
        if any(w < 1 for _, w in self.soft):
            raise ValueError("soft weight must be >= 1")

    @property
    def soft_weights(self) -> list[int]:
        return [w for _, w in self.soft]

    @property
    def total_soft_weight(self) -> int:
        return sum(self.soft_weights)


@dataclass
class Model:
    """A total assignment over the original variables, with its cost under
    the original weights (true_cost) and the approximated weights searched
    when it was found (approx_cost); a search's best model is re-priced
    when the search falls back to coarser weights (see search)."""

    assignment: dict[int, bool]
    true_cost: int
    approx_cost: int


def parse_wcnf(text) -> WcnfFormula:
    """Parse old-style WDIMACS from a str or bytes buffer.

    Raises WcnfParseError on bytes that are not UTF-8, a malformed header,
    an 'h' line, non-positive weight, weight above top, a 0 inside a clause
    body, a missing terminating 0, or any non-integer token. A clause count
    differing from the header is recorded as a warning, and variables beyond
    the header count grow num_vars.

    Each line is converted with one int() per token, and each Clause is a
    bare object whose slot is stored through the slot's descriptor. A line
    whose conversion fails is then looked at for a header, an 'h' marker
    or a clause before the header.

    A 5-token line is first unpacked as weight, three literals and a
    final token. When that final token is 0, the weight is in 1..top (so a
    header has been read) and the literals are nonzero and pairwise
    unequal, its lits are those literals as written, which is the clause
    the general path makes of it (a tautology is kept as written there
    too). Every other line, one whose int() fails included, takes the
    general path, so each error and its line number are the general
    path's.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode()
        except UnicodeDecodeError as e:
            raise WcnfParseError(text.count(b"\n", 0, e.start) + 1,
                                 f"byte 0x{text[e.start]:02x} is not UTF-8") from None
    top = 0  # 0 until the 'p wcnf' header, whose top is at least 1
    hard: list[Clause] = []
    soft: list[tuple[Clause, int]] = []
    add_hard = hard.append
    add_soft = soft.append
    new = object.__new__
    set_lits = Clause.lits.__set__  # the slot's own store, past the frozen __setattr__
    line_no = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if not toks or toks[0][0] == "c":
            continue
        lits = ()
        if len(toks) == 5:  # weight, three literals, 0
            try:
                w, a, b, c, z = map(int, toks)
            except ValueError:
                pass
            else:
                if not z and 0 < w <= top and a and b and c and a != b != c != a:
                    lits = (a, b, c)
        if not lits:
            try:
                w, *body = map(int, toks)
            except ValueError:
                if toks[0] == "h":
                    raise WcnfParseError(
                        line_no,
                        "'h' marker is the 2022 WCNF format, which is not supported; "
                        "use old-style WDIMACS with a 'p wcnf' header",
                    ) from None
                if toks[0] == "p":
                    nvars, nclauses, top = _header(line_no, toks, top)
                    continue
                if not top:
                    raise WcnfParseError(line_no, "clause before 'p wcnf' header") from None
                raise WcnfParseError(line_no, "non-integer token in clause") from None
            if not 0 < w <= top:
                if not top:
                    raise WcnfParseError(line_no, "clause before 'p wcnf' header")
                if w <= 0:
                    raise WcnfParseError(line_no, f"weight {w} must be positive")
                raise WcnfParseError(line_no, f"weight {w} exceeds top {top}")
            if not body or body.pop():
                raise WcnfParseError(line_no, "clause missing terminating 0")
            if len({*body}) < len(body):
                body = dict.fromkeys(body)  # keeps each literal's first occurrence
            lits = (*body,)
            if 0 in lits:
                raise WcnfParseError(line_no, "literal 0 mid-clause")
            if not lits:
                raise WcnfParseError(line_no, "empty clause")
        clause = new(Clause)
        set_lits(clause, lits)
        if w == top:
            add_hard(clause)
        else:
            add_soft((clause, w))
    if not top:
        raise WcnfParseError(max(line_no, 1), "missing 'p wcnf' header")
    warnings = []
    found = len(hard) + len(soft)
    if found != nclauses:
        warnings.append(f"header declares {nclauses} clauses, found {found}")
    return WcnfFormula(nvars, hard, soft, warnings, grow_vars=True)


def _header(line_no: int, toks: list[str], top: int) -> tuple[int, int, int]:
    """(vars, clauses, top) of a 'p' line; top is the current one, 0 before
    any header. It runs while the line's failed int() is being handled, so
    every error it raises drops that context."""
    if top:
        raise WcnfParseError(line_no, "duplicate 'p' header") from None
    if len(toks) != 5 or toks[1] != "wcnf":
        raise WcnfParseError(
            line_no, "malformed header; expected 'p wcnf <vars> <clauses> <top>'"
        ) from None
    try:
        nvars, nclauses, top = map(int, toks[2:])
    except ValueError:
        raise WcnfParseError(line_no, "non-integer header field") from None
    if nvars < 0 or nclauses < 0 or top < 1:
        raise WcnfParseError(line_no, "header fields out of range") from None
    return nvars, nclauses, top


def serialize_wcnf(f: WcnfFormula) -> str:
    """Emit canonical WDIMACS: header, hard clauses first, then soft.

    top is chosen as total soft weight + 1, so every soft weight stays
    strictly below it. parse_wcnf(serialize_wcnf(f)) == f.
    """
    top = f.total_soft_weight + 1
    lines = [f"p wcnf {f.num_vars} {len(f.hard) + len(f.soft)} {top}"]
    for c in f.hard:
        lines.append(f"{top} {' '.join(map(str, c.lits))} 0")
    for c, w in f.soft:
        lines.append(f"{w} {' '.join(map(str, c.lits))} 0")
    return "\n".join(lines) + "\n"


def relax(f: WcnfFormula) -> tuple[int, ...]:
    """Objective literals, one per soft clause, each true in every model of
    the relaxed formula that violates its clause. The first soft unit (l) on
    a variable has -l and adds no variable or clause. Every other soft
    clause, a later soft unit on that variable included, (l) or (-l), has a
    fresh relaxation variable r, numbered from num_vars+1 in soft order, and
    becomes clause.lits + (r,) in the relaxed formula."""
    taken = set()
    fresh = count(f.num_vars + 1)
    out = []
    for clause, _ in f.soft:
        lit, *rest = clause.lits
        if rest or abs(lit) in taken:
            out.append(next(fresh))
        else:
            taken.add(abs(lit))
            out.append(-lit)
    return tuple(out)


def _require_total(f: WcnfFormula, assignment) -> None:
    for v in range(1, f.num_vars + 1):
        if v not in assignment:
            raise ValueError(f"partial assignment: variable {v} unassigned")


def cost(f: WcnfFormula, assignment, weights=None) -> int:
    """Summed weight of soft clauses unsatisfied by a total assignment.

    weights, when given, substitutes a per-soft-index weight sequence
    (e.g. an approximated weight map). A tautological soft clause is
    satisfied by every assignment, so it never contributes.
    """
    _require_total(f, assignment)
    total = 0
    for i, (c, w) in enumerate(f.soft):
        if not c.satisfied_by(assignment):
            total += w if weights is None else weights[i]
    return total


def check_model(f: WcnfFormula, assignment):
    """Validate a total assignment against the hard clauses.

    Returns ('valid', cost) when every hard clause is satisfied, else
    ('violates_hard', index) for the first violated hard clause.
    """
    _require_total(f, assignment)
    for i, c in enumerate(f.hard):
        if not c.satisfied_by(assignment):
            return ("violates_hard", i)
    return ("valid", cost(f, assignment))
