import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from apxmaxsat import encodings
from apxmaxsat.encodings import (CnfBuffer, EncodingInterrupted, EncodingTooLarge,
                                 GeneralizedTotalizer, Totalizer)
from apxmaxsat.satcore import Budget, SatSolver, Status

from conftest import (all_assignments, arithmetic_models, clause_sat, clause_strategy,
                      projected_models)


def buffer_models(buf):
    """All satisfying assignments of the buffered clauses, by direct
    enumeration over every variable (inputs and auxiliaries)."""
    out = []
    for bits in itertools.product([False, True], repeat=buf.num_vars):
        a = {v: bits[v - 1] for v in range(1, buf.num_vars + 1)}
        if all(clause_sat(c, a) for c in buf.clauses):
            out.append(a)
    return out


# ----------------------------------------------------------------------
# totalizer

def test_totalizer_three_inputs_output_semantics():
    buf = CnfBuffer(3)
    tot = Totalizer([1, 2, 3], buf)
    assert len(tot.outputs) == 3
    for a in buffer_models(buf):
        true_inputs = sum(a[v] for v in (1, 2, 3))
        for j in range(1, 4):
            if true_inputs >= j:
                assert a[abs(tot.outputs[j - 1])] == (tot.outputs[j - 1] > 0)


def test_totalizer_single_input_is_identity():
    buf = CnfBuffer(1)
    tot = Totalizer([1], buf)
    assert tot.outputs == [1]
    assert buf.clauses == []


def test_totalizer_two_inputs_implications():
    buf = CnfBuffer(2)
    tot = Totalizer([1, 2], buf)
    o1, o2 = tot.outputs
    for a in buffer_models(buf):
        if a[1] or a[2]:
            assert a[o1]
        if a[1] and a[2]:
            assert a[o2]


def test_totalizer_bound_one_of_three():
    buf = CnfBuffer(3)
    Totalizer([1, 2, 3], buf).set_bound(1, buf)
    projections = {tuple(v for v in (1, 2, 3) if a[v]) for a in buffer_models(buf)}
    assert projections == {(), (1,), (2,), (3,)}


def test_totalizer_bound_zero_forces_all_false():
    buf = CnfBuffer(3)
    Totalizer([1, 2, 3], buf).set_bound(0, buf)
    for a in buffer_models(buf):
        assert not (a[1] or a[2] or a[3])


def test_totalizer_stepwise_equals_direct():
    direct = CnfBuffer(3)
    Totalizer([1, 2, 3], direct).set_bound(1, direct)
    stepped = CnfBuffer(3)
    tot = Totalizer([1, 2, 3], stepped)
    tot.set_bound(2, stepped)
    tot.set_bound(1, stepped)
    proj = lambda buf: {tuple(v for v in (1, 2, 3) if a[v]) for a in buffer_models(buf)}
    assert proj(direct) == proj(stepped)


def test_totalizer_contract_errors():
    with pytest.raises(ValueError):
        Totalizer([], CnfBuffer())
    with pytest.raises(ValueError):
        Totalizer([1, 1], CnfBuffer(1))
    buf = CnfBuffer(2)
    tot = Totalizer([1, 2], buf)
    tot.set_bound(1, buf)
    with pytest.raises(ValueError):
        tot.set_bound(1, buf)
    with pytest.raises(ValueError):
        tot.set_bound(-1, buf)
    with pytest.raises(ValueError):  # above the input count, as above a GTE's cap
        Totalizer([1, 2], buf).set_bound(3, buf)


# ----------------------------------------------------------------------
# generalized totalizer

def test_gte_two_weights_overflow_collapse():
    buf = CnfBuffer(2)
    gte = GeneralizedTotalizer([(1, 2), (2, 3)], 3, buf)
    assert [s for s, _ in gte.sums] == [2, 3]
    assert gte.overflow is not None
    over = gte.overflow
    for a in buffer_models(buf):
        if a[1] and a[2]:
            assert a[over]
    gte.set_bound(3, buf)
    projections = {tuple(v for v in (1, 2) if a[v]) for a in buffer_models(buf)}
    assert projections == {(), (1,), (2,)}


def test_gte_unit_weights_degenerate_to_counter():
    buf = CnfBuffer(3)
    gte = GeneralizedTotalizer([(1, 1), (2, 1), (3, 1)], 3, buf)
    assert [s for s, _ in gte.sums] == [1, 2, 3]
    assert gte.overflow is None
    for a in buffer_models(buf):
        k = sum(a[v] for v in (1, 2, 3))
        for s, lit in gte.sums:
            if k >= s:
                assert a[lit]


def test_gte_single_heavy_input_forced_false():
    buf = CnfBuffer(1)
    gte = GeneralizedTotalizer([(1, 4)], 3, buf)
    assert gte.sums == [] and gte.overflow == 1
    gte.set_bound(3, buf)
    for a in buffer_models(buf):
        assert not a[1]


def test_gte_bounds_between_sums_equivalent():
    def project(bound):
        buf = CnfBuffer(2)
        GeneralizedTotalizer([(1, 2), (2, 3)], 5, buf).set_bound(bound, buf)
        return {tuple(v for v in (1, 2) if a[v]) for a in buffer_models(buf)}

    assert project(4) == project(3) == {(), (1,), (2,)}
    assert project(0) == {()}


def test_gte_contract_errors():
    with pytest.raises(ValueError):
        GeneralizedTotalizer([], 3, CnfBuffer())
    with pytest.raises(ValueError):
        GeneralizedTotalizer([(1, 0)], 3, CnfBuffer(1))
    with pytest.raises(ValueError):
        GeneralizedTotalizer([(1, 2)], -1, CnfBuffer(1))
    buf = CnfBuffer(2)
    gte = GeneralizedTotalizer([(1, 2), (2, 3)], 5, buf)
    with pytest.raises(ValueError):
        gte.set_bound(6, buf)
    gte.set_bound(3, buf)
    with pytest.raises(ValueError):
        gte.set_bound(4, buf)


# ----------------------------------------------------------------------
# equivalence against arithmetic enumeration

def random_weights(rng, max_inputs=8, max_weight=10):
    return [rng.randint(1, max_weight) for _ in range(rng.randint(1, max_inputs))]


def test_projected_equivalence_seeded_trials():
    rng = random.Random(4242)
    for trial in range(60):
        weights = random_weights(rng, max_inputs=6)
        total = sum(weights)
        bound = rng.randint(0, total)
        n = len(weights)
        expected = arithmetic_models(weights, bound)

        buf = CnfBuffer(n)
        gte = GeneralizedTotalizer(list(zip(range(1, n + 1), weights)), total, buf)
        gte.set_bound(bound, buf)
        assert projected_models(buf.clauses, range(1, n + 1)) == expected

        k = rng.randint(0, n)
        card = CnfBuffer(n)
        Totalizer(range(1, n + 1), card).set_bound(k, card)
        expected_card = arithmetic_models([1] * n, k)
        assert projected_models(card.clauses, range(1, n + 1)) == expected_card


def test_tightening_path_independence_seeded_trials():
    rng = random.Random(977)
    for trial in range(25):
        weights = random_weights(rng, max_inputs=6)
        total = sum(weights)
        final = rng.randint(0, max(total - 1, 0))
        path = sorted(rng.sample(range(final, total + 1),
                                 min(3, total - final + 1)), reverse=True)
        if path[-1] != final:
            path.append(final)
        n = len(weights)
        items = list(zip(range(1, n + 1), weights))

        stepped = CnfBuffer(n)
        g1 = GeneralizedTotalizer(items, total, stepped)
        for b in path:
            g1.set_bound(b, stepped)
        direct = CnfBuffer(n)
        g2 = GeneralizedTotalizer(items, total, direct)
        g2.set_bound(final, direct)
        inputs = range(1, n + 1)
        assert projected_models(stepped.clauses, inputs) \
            == projected_models(direct.clauses, inputs) \
            == arithmetic_models(weights, final)


def test_gte_size_grows_with_distinct_weights():
    # fixed input count; average clause count over seeded draws with exactly
    # d distinct weight values is nondecreasing in d
    n = 8
    rng = random.Random(11)
    averages = []
    for d in range(1, n + 1):
        total = 0
        trials = 40
        for _ in range(trials):
            vals = rng.sample(range(1, 11), d)
            weights = vals + [rng.choice(vals) for _ in range(n - d)]
            rng.shuffle(weights)
            buf = CnfBuffer(n)
            GeneralizedTotalizer(list(zip(range(1, n + 1), weights)),
                                 sum(weights), buf)
            total += len(buf.clauses)
        averages.append(total / trials)
    assert averages == sorted(averages)


@pytest.mark.parametrize("seed, clauses, num_vars, digest", [
    (0, 2746, 354, "2d26bd6204df3725"),
    (1, 299, 120, "950d8397f3d68036"),
    (2, 82, 56, "26dd1b30dccea772"),
    (3, 427, 157, "e96962924d1a4d7a"),
])
def test_gte_clause_list_is_pinned(seed, clauses, num_vars, digest):
    # the exact clause sequence the solver's search paths depend on
    rng = random.Random(seed)
    items = [(v if rng.random() < 0.5 else -v, rng.randint(1, 60))
             for v in range(1, rng.randint(6, 16) + 1)]
    buf = CnfBuffer(len(items))
    gte = GeneralizedTotalizer(items, sum(w for _, w in items) // 2, buf)
    gte.set_bound(sum(w for _, w in items) // 3, buf)
    assert (len(buf.clauses), buf.num_vars) == (clauses, num_vars)
    assert hashlib.sha256(repr(buf.clauses).encode()).hexdigest()[:16] == digest


def one_pass_gte(items, max_bound, sink):
    """The one-pass merge-tree builder that sizing before emitting split
    in two, kept as the reference for the clauses and variables the GTE
    makes. Returns its root (sums, overflow)."""
    def build(pairs):
        if len(pairs) == 1:
            lit, w = pairs[0]
            return ([], lit) if w > max_bound else ([(w, lit)], None)
        half = len(pairs) // 2
        lsums, lover = build(pairs[:half])
        rsums, rover = build(pairs[half:])
        reach = {s for s, _ in lsums} | {s for s, _ in rsums}
        need_over = lover is not None or rover is not None
        for sa, _ in lsums:
            for sb, _ in rsums:
                if sa + sb > max_bound:
                    need_over = True
                else:
                    reach.add(sa + sb)
        out = {s: sink.new_var() for s in sorted(reach)}
        over = sink.new_var() if need_over else None
        for s, l in lsums + rsums:
            sink.add_clause([-l, out[s]])
        for child_over in (lover, rover):
            if child_over is not None:
                sink.add_clause([-child_over, over])
        for sa, la in lsums:
            for sb, lb in rsums:
                t = sa + sb
                sink.add_clause([-la, -lb, out[t] if t <= max_bound else over])
        return [(s, out[s]) for s in sorted(reach)], over

    return build([(int(l), int(w)) for l, w in items])


def test_gte_matches_one_pass_reference_seeded_trials():
    rng = random.Random(4242)
    for trial in range(100):
        weights = random_weights(rng, max_inputs=16, max_weight=60)
        items = [(v if rng.random() < 0.5 else -v, w)
                 for v, w in enumerate(weights, start=1)]
        cap = rng.randint(0, sum(weights))
        two_pass, one_pass = CnfBuffer(len(items)), CnfBuffer(len(items))
        gte = GeneralizedTotalizer(items, cap, two_pass)
        assert (gte.sums, gte.overflow) == one_pass_gte(items, cap, one_pass)
        assert two_pass.clauses == one_pass.clauses
        assert two_pass.num_vars == one_pass.num_vars


def test_gte_cap_counts_exactly_the_clauses_emitted(monkeypatch):
    rng = random.Random(31)
    for trial in range(30):
        weights = random_weights(rng, max_inputs=12, max_weight=40)
        items = list(zip(range(1, len(weights) + 1), weights))
        cap = rng.randint(0, sum(weights))
        monkeypatch.undo()
        full = CnfBuffer(len(items))
        GeneralizedTotalizer(items, cap, full)
        monkeypatch.setattr(encodings, "MAX_GTE_CLAUSES", len(full.clauses))
        at_cap = CnfBuffer(len(items))
        GeneralizedTotalizer(items, cap, at_cap)
        assert at_cap.clauses == full.clauses
        if full.clauses:
            monkeypatch.setattr(encodings, "MAX_GTE_CLAUSES", len(full.clauses) - 1)
            over = CnfBuffer(len(items))
            with pytest.raises(EncodingTooLarge):
                GeneralizedTotalizer(items, cap, over)
            assert (over.num_vars, over.clauses) == (len(items), [])


def test_gte_over_cap_leaves_sink_untouched():
    # weights 2^0..2^19 reach every sum below 2^20, far past the cap
    items = [(v, 1 << (v - 1)) for v in range(1, 21)]
    buf = CnfBuffer(20)
    with pytest.raises(EncodingTooLarge):
        GeneralizedTotalizer(items, (1 << 20) - 1, buf)
    assert (buf.num_vars, buf.clauses) == (20, [])


def test_gte_build_stops_when_the_budget_runs_out():
    items = [(v, v) for v in range(1, 13)]
    polls = []
    full = CnfBuffer(12)
    gte = GeneralizedTotalizer(items, 78, full,
                               budget=Budget(stop=lambda: polls.append(None)))
    for last in (len(items), len(polls)):  # the first and last poll while emitting
        seen = []

        def stop():
            seen.append(None)
            return len(seen) >= last

        buf = CnfBuffer(12)
        with pytest.raises(EncodingInterrupted):
            GeneralizedTotalizer(items, 78, buf, budget=Budget(stop=stop))
        assert buf.clauses == full.clauses[:len(buf.clauses)] != full.clauses
    # polled once per row: stopped at the last poll, only the root's last
    # row of (sum, sum) clauses is missing
    assert len(full.clauses) - len(buf.clauses) < len(gte.sums)
    with pytest.raises(EncodingInterrupted):
        GeneralizedTotalizer(items, 78, CnfBuffer(12), budget=Budget(timeout_s=0))


# ----------------------------------------------------------------------
# outputs as non-decision variables of a solver

class RecordingSink:
    """Builds into a SatSolver and keeps a copy of every clause it adds."""

    def __init__(self, solver):
        self.solver = solver
        self.clauses = []

    def new_var(self, decision=True):
        return self.solver.new_var(decision=decision)

    def add_clause(self, lits):
        self.clauses.append(list(lits))
        self.solver.add_clause(lits)


@st.composite
def cnf_and_gte(draw, max_vars=7):
    """A random CNF over n <= max_vars variables, GTE inputs over distinct
    variables of it with random signs and weights, a cap, and a descending
    path of bounds at most the cap."""
    n = draw(st.integers(1, max_vars))
    clauses = draw(st.lists(clause_strategy(n), max_size=14))
    inputs = draw(st.lists(st.integers(1, n), min_size=1, unique=True))
    items = [(v if draw(st.booleans()) else -v, draw(st.integers(1, 12)))
             for v in inputs]
    cap = draw(st.integers(0, sum(w for _, w in items)))
    bounds = draw(st.lists(st.integers(0, cap), min_size=1, max_size=3, unique=True))
    return n, clauses, items, cap, sorted(bounds, reverse=True)


@settings(max_examples=300)
@given(cnf_and_gte(), st.integers(0, 3))
def test_gte_in_solver_agrees_with_enumeration(case, seed):
    n, clauses, items, cap, bounds = case
    solver = SatSolver(n, seed=seed)
    sink = RecordingSink(solver)
    for c in clauses:
        sink.add_clause(c)
    gte = GeneralizedTotalizer(items, cap, sink)
    # every variable the encoder made is left to propagation
    assert not any(solver.decision[n + 1:])
    for b in bounds:  # tightened in place, as the search does
        gte.set_bound(b, sink)
        expected = any(all(clause_sat(c, a) for c in clauses)
                       and sum(w for l, w in items if clause_sat([l], a)) <= b
                       for a in all_assignments(n))
        st_, model = solver.solve()
        assert st_ is (Status.SAT if expected else Status.UNSAT)
        if st_ is Status.SAT:  # encoding clauses included
            assert all(clause_sat(c, model) for c in sink.clauses)


def test_cnf_buffer_dimacs():
    buf = CnfBuffer(2)
    buf.add_clause([1, -2])
    v = buf.new_var()
    buf.add_clause([-v])
    assert buf.to_dimacs() == "p cnf 3 2\n1 -2 0\n-3 0\n"
