import dataclasses
import pickle
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from apxmaxsat import wcnf
from apxmaxsat.wcnf import (Clause, WcnfFormula, WcnfParseError, check_model,
                            cost, parse_wcnf, relax, serialize_wcnf)

from conftest import E1_TEXT, all_assignments, formula_strategy


# ----------------------------------------------------------------------
# parsing

def test_parse_e1_structure(e1):
    assert e1.num_vars == 2
    assert [c.lits for c in e1.hard] == [(1, 2)]
    assert [(c.lits, w) for c, w in e1.soft] == [((-1,), 3), ((-2,), 2)]
    assert e1.warnings == []


def test_parse_top_weight_clause_is_hard():
    f = parse_wcnf("p wcnf 1 1 5\n5 1 0\n")
    assert len(f.hard) == 1 and len(f.soft) == 0


def test_parse_weight_above_top_rejected():
    with pytest.raises(WcnfParseError) as ei:
        parse_wcnf("p wcnf 1 1 5\n6 1 0\n")
    assert ei.value.line_no == 2
    assert "exceeds top" in str(ei.value)


@pytest.mark.parametrize("text,frag", [
    ("p wcnf 1 1\n5 1 0\n", "header"),
    ("p cnf 1 1 5\n5 1 0\n", "header"),
    ("px wcnf 1 1 5\n5 1 0\n", "before"),
    ("pwcnf wcnf 1 1 5\n5 1 0\n", "before"),
    ("p wcnf a 1 5\n5 1 0\n", "non-integer"),
    ("p wcnf -1 1 5\n5 1 0\n", "out of range"),
    ("p wcnf 1 1 0\n5 1 0\n", "out of range"),
    ("p wcnf 1 1 5\n0 1 0\n", "positive"),
    ("p wcnf 1 1 5\n-2 1 0\n", "positive"),
    ("p wcnf 2 1 5\n5 1 0 2 0\n", "literal 0 mid-clause"),
    ("p wcnf 1 1 5\n5 1\n", "terminating 0"),
    ("p wcnf 1 1 5\n5 x 0\n", "non-integer"),
    ("p wcnf 1 1 5\n5 0\n", "empty clause"),
    ("5 1 0\np wcnf 1 1 5\n", "before"),
    ("", "missing 'p wcnf' header"),
    ("c only comments\n", "missing 'p wcnf' header"),
    ("p wcnf 1 1 5\np wcnf 1 1 5\n", "duplicate"),
    # two- and three-literal lines, which the reader takes on a short branch
    # when they hold a clause
    ("p wcnf 2 1 5\n5 1 0 0\n", "literal 0 mid-clause"),
    ("p wcnf 4 1 5\n5 1 2 3 4\n", "terminating 0"),
    ("p wcnf 3 1 5\n5 1 2 3\n", "terminating 0"),
    ("p wcnf 3 1 5\n5 1 x 3 0\n", "non-integer"),
    ("p wcnf 3 1 5\n0 1 2 3 0\n", "weight 0 must be positive"),
    ("p wcnf 2 1 5\n-0 1 2 0\n", "weight 0 must be positive"),
    ("p wcnf 3 1 5\n99 1 2 3 0\n", "weight 99 exceeds top 5"),
    ("5 1 2 3 0\np wcnf 3 1 5\n", "before"),
    ("5 1 2 0\np wcnf 3 1 5\n", "before"),
    ("p wcnf 3 2 5\n5 1 2 3 0\np wcnf 3 2 5\n5 1 2 0\n", "duplicate"),
    ("p wcnf 3 1 5\nh 1 2 3 0\n", "2022"),
])
def test_parse_errors(text, frag):
    with pytest.raises(WcnfParseError) as ei:
        parse_wcnf(text)
    assert frag in str(ei.value)
    assert _outcome(parse_wcnf, text) == _outcome(reference_parse_wcnf, text)


def test_parse_rejects_2022_format():
    with pytest.raises(WcnfParseError) as ei:
        parse_wcnf("h 1 2 0\n2 -1 0\n")
    assert "2022" in str(ei.value)
    with pytest.raises(WcnfParseError):
        parse_wcnf("p wcnf 2 2 5\nh 1 2 0\n")


def test_parse_error_carries_line_number():
    with pytest.raises(WcnfParseError) as ei:
        parse_wcnf("c comment\np wcnf 1 2 5\n1 1 0\n5 q 0\n")
    assert ei.value.line_no == 4


def test_parse_bytes_not_utf8_names_the_line():
    for data, line_no in ((b"c \xc3\xa9\np wcnf 1 1 5\n5 1 0 \xff\n", 3),
                          (b"p wcnf 1 1 5\n\xff5 1 0\n", 2),
                          (b"\xff", 1)):
        with pytest.raises(WcnfParseError) as ei:
            parse_wcnf(data)
        assert ei.value.line_no == line_no
        assert "0xff" in str(ei.value)


def test_parse_clause_count_mismatch_warns():
    f = parse_wcnf("p wcnf 1 3 5\n5 1 0\n")
    assert any("declares 3" in w for w in f.warnings)


def test_parse_variables_beyond_header_grow_num_vars():
    f = parse_wcnf("p wcnf 1 1 5\n5 1 7 0\n")
    assert f.num_vars == 7


def test_parse_accepts_comments_blanks_and_bytes():
    f = parse_wcnf(b"c hi\n\np wcnf 2 1 9\n9 1 -2 0\n")
    assert f.hard[0].lits == (1, -2)


# each accepted input with its exact result:
# (num_vars, hard clauses' lits, soft (lits, weight) pairs, warnings)
ACCEPTED = [
    ("leading and trailing whitespace",
     "  p wcnf 2 2 9  \n   9 1 -2 0   \n 3 2 0 \n",
     (2, [(1, -2)], [((2,), 3)], [])),
    ("tabs",
     "p\twcnf\t3\t2\t9\n9\t1\t2\t0\n\t4\t-3\t0\t\n",
     (3, [(1, 2)], [((-3,), 4)], [])),
    ("crlf line endings",
     "c x\r\np wcnf 2 2 9\r\n9 1 2 0\r\n1 -1 0\r\n",
     (2, [(1, 2)], [((-1,), 1)], [])),
    ("comment variants",
     "c\ncomment\nc\tx\n   c indented\ncc 1 0\np wcnf 1 1 5\nc between\n"
     "5 1 0\nc no final newline",
     (1, [(1,)], [], [])),
    ("blank and whitespace-only lines",
     "\n  \n\t\np wcnf 1 1 5\n\n2 1 0\n\n",
     (1, [], [((1,), 2)], [])),
    ("duplicate literals keep their first occurrence",
     "p wcnf 3 2 9\n9 1 1 2 1 0\n2 -3 -3 0\n",
     (3, [(1, 2)], [((-3,), 2)], [])),
    ("tautological clauses are kept as written",
     "p wcnf 2 2 9\n9 1 -1 2 0\n4 -2 2 -2 0\n",
     (2, [(1, -1, 2)], [((-2, 2), 4)], [])),
    ("variables beyond the header grow num_vars",
     "p wcnf 1 2 9\n9 1 5 0\n3 -7 0\n",
     (7, [(1, 5)], [((-7,), 3)], [])),
    ("more clauses declared than found",
     "p wcnf 2 5 9\n9 1 2 0\n1 -2 0\n",
     (2, [(1, 2)], [((-2,), 1)], ["header declares 5 clauses, found 2"])),
    ("fewer clauses declared than found",
     "p wcnf 1 0 9\n3 1 0\n",
     (1, [], [((1,), 3)], ["header declares 0 clauses, found 1"])),
    ("empty formula",
     "p wcnf 0 0 1\n",
     (0, [], [], [])),
    ("weights beyond 64 bits",
     "p wcnf 2 2 100000000000000000000\n100000000000000000000 1 0\n"
     "99999999999999999999 -2 0\n",
     (2, [(1,)], [((-2,), 99999999999999999999)], [])),
    ("bytes with crlf",
     b"p wcnf 2 2 9\r\n9 -1 -2 0\r\n5 2 0\r\n",
     (2, [(-1, -2)], [((2,), 5)], [])),
    ("two- and three-literal lines: a duplicate drops, a tautology stays",
     "p wcnf 3 4 9\n5 1 1 2 0\n5 1 -1 2 0\n9 -1 2 -3 0\n3 2 -2 0\n",
     (3, [(-1, 2, -3)], [((1, 2), 5), ((1, -1, 2), 5), ((2, -2), 3)], [])),
    ("two- and three-literal lines with tabs and crlf",
     "p wcnf 4 3 9\r\n9\t1\t-2\t3\t0\r\n\t4\t-3\t2\t0\t\r\n2 \t-4  1\t0 \r\n",
     (4, [(1, -2, 3)], [((-3, 2), 4), ((-4, 1), 2)], [])),
]


@pytest.mark.parametrize("text,expected", [(t, e) for _, t, e in ACCEPTED],
                         ids=[name for name, _, _ in ACCEPTED])
def test_parse_accepted_inputs_exactly(text, expected):
    f = parse_wcnf(text)
    assert (f.num_vars, [c.lits for c in f.hard],
            [(c.lits, w) for c, w in f.soft], f.warnings) == expected
    assert _outcome(parse_wcnf, text) == _outcome(reference_parse_wcnf, text)


# ----------------------------------------------------------------------
# differential parse: the one-conversion parser against the reference below

def reference_parse_wcnf(text) -> WcnfFormula:
    """parse_wcnf as it was written before each token was converted once:
    every line is checked head first, then converted with map(int, ...),
    and its body goes through Clause.of, which converts it again."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode()
        except UnicodeDecodeError as e:
            raise WcnfParseError(text.count(b"\n", 0, e.start) + 1,
                                 f"byte 0x{text[e.start]:02x} is not UTF-8") from None
    top = None
    hard, soft = [], []
    line_no = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if not toks or toks[0][0] == "c":
            continue
        if toks[0] == "h":
            raise WcnfParseError(
                line_no,
                "'h' marker is the 2022 WCNF format, which is not supported; "
                "use old-style WDIMACS with a 'p wcnf' header",
            )
        if toks[0] == "p":
            if top is not None:
                raise WcnfParseError(line_no, "duplicate 'p' header")
            if len(toks) != 5 or toks[1] != "wcnf":
                raise WcnfParseError(
                    line_no, "malformed header; expected 'p wcnf <vars> <clauses> <top>'"
                )
            try:
                nvars, nclauses, top = map(int, toks[2:])
            except ValueError:
                raise WcnfParseError(line_no, "non-integer header field") from None
            if nvars < 0 or nclauses < 0 or top < 1:
                raise WcnfParseError(line_no, "header fields out of range")
            continue
        if top is None:
            raise WcnfParseError(line_no, "clause before 'p wcnf' header")
        try:
            w, *body = map(int, toks)
        except ValueError:
            raise WcnfParseError(line_no, "non-integer token in clause") from None
        if w <= 0:
            raise WcnfParseError(line_no, f"weight {w} must be positive")
        if w > top:
            raise WcnfParseError(line_no, f"weight {w} exceeds top {top}")
        if not body or body.pop() != 0:
            raise WcnfParseError(line_no, "clause missing terminating 0")
        try:
            clause = Clause.of(body)
        except ValueError as e:
            raise WcnfParseError(line_no, str(e)) from None
        if w == top:
            hard.append(clause)
        else:
            soft.append((clause, w))
    if top is None:
        raise WcnfParseError(max(line_no, 1), "missing 'p wcnf' header")
    warnings = []
    found = len(hard) + len(soft)
    if found != nclauses:
        warnings.append(f"header declares {nclauses} clauses, found {found}")
    return WcnfFormula(nvars, hard, soft, warnings, grow_vars=True)


def _corrupt(rng, lines, top):
    """Apply one single-token corruption to a list of token lists."""
    clauses = [i for i, toks in enumerate(lines) if toks and toks[0] not in ("c", "p")]
    header = next(i for i, toks in enumerate(lines) if toks and toks[0] == "p")
    kind = rng.choice(["stray 0", "missing 0", "x", "weight 0", "above top", "h",
                       "second p", "before header", "bad header", "no header"])
    if kind == "h":
        lines.insert(rng.randrange(len(lines) + 1), ["h", "1", "-2", "0"])
    elif kind == "second p":
        lines.insert(rng.randrange(header + 1, len(lines) + 1), list(lines[header]))
    elif kind == "before header":
        lines.insert(rng.randrange(header + 1), [str(top), "1", "0"])
    elif kind == "no header":
        del lines[header]
    elif kind == "bad header":
        toks = lines[header]
        i = rng.randrange(1, len(toks))
        toks[i] = rng.choice(["x", "-1", "0", "cnf"])
        if rng.random() < 0.3:
            del toks[-1]
    elif clauses:
        toks = lines[rng.choice(clauses)]
        if kind == "stray 0":
            toks.insert(rng.randrange(1, len(toks)), "0")
        elif kind == "missing 0":
            del toks[-1]
        elif kind == "x":
            toks[rng.randrange(len(toks))] = "x"
        elif kind == "weight 0":
            toks[0] = rng.choice(["0", "-0", "-3"])
        else:
            toks[0] = str(top + rng.randint(1, 3))


def random_wdimacs(rng):
    """A seeded WDIMACS text (str or bytes) with comments, blank lines, tabs,
    CRLF, duplicate literals and tautologies; about half carry one
    single-token corruption."""
    nvars = rng.randint(0, 6)
    top = rng.randint(1, 12)
    body = []
    for _ in range(rng.randint(0, 7)):
        w = top if rng.random() < 0.4 else rng.randint(1, top)
        lits = [rng.choice((1, -1)) * rng.randint(1, nvars + 2)
                for _ in range(rng.randint(0 if rng.random() < 0.05 else 1, 4))]
        if lits and rng.random() < 0.2:
            lits.insert(rng.randrange(len(lits) + 1), rng.choice(lits))
        if lits and rng.random() < 0.15:
            lits.append(-rng.choice(lits))
        body.append([str(w)] + [str(l) for l in lits] + ["0"])
    declared = len(body) + rng.choice((0, 0, 0, -1, 1))
    lines = [["p", "wcnf", str(nvars), str(max(declared, 0)), str(top)]] + body
    for _ in range(rng.randint(0, 4)):
        lines.insert(rng.randrange(len(lines) + 1),
                     rng.choice([["c", "a", "comment"], ["c"], ["cc", "1", "0"], []]))
    if rng.random() < 0.5:
        _corrupt(rng, lines, top)
    sep = rng.choice([" ", "\t", "  ", " \t"])
    pad = rng.choice(["", " ", "\t"])
    text = rng.choice(["\n", "\r\n"]).join(pad + sep.join(toks) for toks in lines)
    if rng.random() < 0.7:
        text += "\n"
    if rng.random() < 0.3:
        data = text.encode()
        if rng.random() < 0.1:
            at = rng.randrange(len(data) + 1)
            data = data[:at] + b"\xff" + data[at:]
        return data
    return text


def _outcome(parse, text):
    try:
        f = parse(text)
    except WcnfParseError as e:
        return ("error", str(e), e.line_no)
    return ("formula", f.num_vars, [c.lits for c in f.hard],
            [(c.lits, w) for c, w in f.soft], f.warnings, f)


def test_parse_matches_the_reference_parser_on_seeded_texts():
    kinds = {"formula": 0, "error": 0}
    for seed in range(500):
        text = random_wdimacs(random.Random(seed))
        got, want = _outcome(parse_wcnf, text), _outcome(reference_parse_wcnf, text)
        assert got == want, (seed, text)
        kinds[got[0]] += 1
    assert min(kinds.values()) >= 150, kinds  # both paths are exercised


# ----------------------------------------------------------------------
# clause normalization

def test_clause_dedup_preserves_first_occurrence():
    assert Clause.of([2, -1, 2, -1]).lits == (2, -1)


def test_clause_tautology_kept_and_never_costs():
    f = parse_wcnf("p wcnf 1 1 5\n2 1 -1 0\n")
    c, w = f.soft[0]
    assert c.lits == (1, -1) and w == 2
    # always satisfied, never contributes cost
    assert c.satisfied_by({1: True}) and c.satisfied_by({1: False})
    assert cost(f, {1: True}) == 0
    assert cost(f, {1: False}) == 0


def test_clause_is_slotted_frozen_and_picklable():
    c = Clause.of([3, -1, 3])
    assert not hasattr(c, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.lits = (1,)
    assert c.lits == (3, -1)
    again = pickle.loads(pickle.dumps(c))
    assert again == c and again.lits == (3, -1) and hash(again) == hash(c)


def test_parsed_clauses_are_ordinary_clauses_and_pickle():
    f = parse_wcnf("p wcnf 3 4 9\n9 1 -2 1 0\n4 -3 0\n2 3 -3 0\n")
    assert f.hard == [Clause.of([1, -2])]
    assert all(type(c) is Clause and not hasattr(c, "__dict__")
               for c in f.hard + [c for c, _ in f.soft])
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.hard[0].lits = ()
    again = pickle.loads(pickle.dumps(f))
    assert again == f and again.warnings == f.warnings == [
        "header declares 4 clauses, found 3"]


def test_duplicate_soft_clauses_stay_distinct():
    f = parse_wcnf("p wcnf 1 2 9\n3 -1 0\n3 -1 0\n")
    assert len(f.soft) == 2
    assert cost(f, {1: True}) == 6


def test_formula_validation():
    with pytest.raises(ValueError):
        WcnfFormula(1, [Clause.of([2])], [])
    with pytest.raises(ValueError):
        WcnfFormula(1, [], [(Clause.of([1]), 0)])
    for hard, soft, message in [
        ([Clause.of([1, -3])], [(Clause.of([2]), 1)], "hard clause variable exceeds num_vars"),
        ([Clause.of([1])], [(Clause.of([2]), 1), (Clause.of([-3, 1]), 4)],
         "soft clause variable exceeds num_vars"),
        ([Clause.of([1])], [(Clause.of([2]), 1), (Clause.of([-2]), 0)],
         "soft weight must be >= 1"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            WcnfFormula(2, hard, soft)
        assert WcnfFormula(3, hard, [(c, 1) for c, _ in soft]).num_vars == 3
    assert WcnfFormula(1, [Clause.of([1, -3])], [(Clause.of([2]), 1)],
                       grow_vars=True).num_vars == 3


def test_parse_walks_each_clause_once_for_its_variables(monkeypatch):
    walked = []
    real = wcnf._max_var

    def spy(clauses):
        clauses = list(clauses)
        walked.extend(clauses)
        return real(clauses)

    monkeypatch.setattr(wcnf, "_max_var", spy)
    f = parse_wcnf("p wcnf 2 3 9\n9 1 2 0\n3 -3 0\n2 1 0\n")
    assert f.num_vars == 3  # grown past the header's count
    assert sorted(map(id, walked)) == sorted(map(id, f.hard + [c for c, _ in f.soft]))


# ----------------------------------------------------------------------
# relax

def relaxed_soft(f, lits):
    """The relaxed soft clauses: those whose objective literal is a
    relaxation variable, each with that variable appended."""
    return [c.lits + (r,) for (c, _), r in zip(f.soft, lits) if r > f.num_vars]


def test_relax_soft_units_are_their_own_negated_literals(e1):
    lits = relax(e1)  # e1's soft clauses are the units (-1) and (-2)
    assert lits == (1, 2)
    assert relaxed_soft(e1, lits) == []


def test_relax_assigns_sequential_fresh_ids():
    f = WcnfFormula(3, [], [(Clause.of([1, 2]), 1), (Clause.of([-2, 3]), 1),
                            (Clause.of([3, 1]), 1)])
    assert relax(f) == (4, 5, 6)
    assert relaxed_soft(f, relax(f)) == [(1, 2, 4), (-2, 3, 5), (3, 1, 6)]


def test_relax_empty_soft():
    f = parse_wcnf("p wcnf 2 1 5\n5 1 2 0\n")
    assert relax(f) == ()


def test_relax_three_soft_clauses():
    f = WcnfFormula(3, [], [(Clause.of([1]), 1), (Clause.of([-2]), 1),
                            (Clause.of([3]), 1)])
    assert relax(f) == (-1, 2, -3)


def test_relax_first_soft_unit_on_a_variable_takes_it():
    # (1) takes variable 1; the later (1) and (-1) get fresh variables, in
    # soft order with the non-unit (2 3) between them
    f = WcnfFormula(3, [], [(Clause.of([1]), 1), (Clause.of([1]), 2),
                            (Clause.of([2, 3]), 3), (Clause.of([-1]), 4),
                            (Clause.of([-2]), 5), (Clause.of([3]), 6)])
    lits = relax(f)
    assert lits == (-1, 4, 5, 6, 2, -3)
    assert relaxed_soft(f, lits) == [(1, 4), (2, 3, 5), (-1, 6)]


@given(formula_strategy())
def test_relax_extension_preserves_models(f):
    lits = relax(f)
    fresh = [r for r in lits if r > f.num_vars]
    assert fresh == list(range(f.num_vars + 1, f.num_vars + 1 + len(fresh)))
    own = [abs(r) for r in lits if r <= f.num_vars]
    assert len(own) == len(set(own))  # one soft unit per variable at most
    for (c, _), r in zip(f.soft, lits):
        assert r > f.num_vars or c.lits == (-r,)
    for assignment in all_assignments(f.num_vars):
        # the least extension: a relaxation variable is true where its
        # clause is violated, and every relaxed clause then holds
        ext = dict(assignment)
        for (c, _), r in zip(f.soft, lits):
            if r > f.num_vars:
                ext[r] = not c.satisfied_by(assignment)
        for clause in relaxed_soft(f, lits):
            assert any(ext[abs(l)] == (l > 0) for l in clause)
        for (c, _), r in zip(f.soft, lits):
            assert (ext[abs(r)] == (r > 0)) == (not c.satisfied_by(assignment))


# ----------------------------------------------------------------------
# cost and model checking

def test_cost_hand_values(e1):
    assert cost(e1, {1: True, 2: True}) == 5
    assert cost(e1, {1: False, 2: True}) == 2
    assert cost(e1, {1: False, 2: False}) == 0


def test_cost_rejects_partial_assignment(e1):
    with pytest.raises(ValueError):
        cost(e1, {1: True})


def test_cost_weight_override(e1):
    assert cost(e1, {1: True, 2: True}, weights=[10, 1]) == 11


def test_check_model(e1):
    assert check_model(e1, {1: False, 2: False}) == ("violates_hard", 0)
    assert check_model(e1, {1: True, 2: False}) == ("valid", 3)
    assert check_model(e1, {1: False, 2: True}) == ("valid", 2)


@given(formula_strategy(max_vars=5))
def test_cost_bounds_and_zero_iff_all_satisfied(f):
    total = f.total_soft_weight
    for assignment in all_assignments(f.num_vars):
        c = cost(f, assignment)
        assert 0 <= c <= total
        all_sat = all(cl.satisfied_by(assignment) for cl, _ in f.soft)
        assert (c == 0) == all_sat


# ----------------------------------------------------------------------
# serialization

def test_serialize_canonical_form(e1):
    text = serialize_wcnf(e1)
    lines = text.splitlines()
    assert lines[0] == "p wcnf 2 3 6"
    assert lines[1] == "6 1 2 0"          # hard first
    assert lines[2:] == ["3 -1 0", "2 -2 0"]


def test_round_trip_e1(e1):
    assert parse_wcnf(serialize_wcnf(e1)) == e1


@given(formula_strategy())
def test_round_trip_property(f):
    again = parse_wcnf(serialize_wcnf(f))
    assert again == f
    assert parse_wcnf(serialize_wcnf(again)) == again
