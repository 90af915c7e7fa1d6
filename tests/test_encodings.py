import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from apxmaxsat import encodings, harness, satcore
from apxmaxsat.encodings import (CnfBuffer, EncodingInterrupted, EncodingTooLarge,
                                 GeneralizedTotalizer, Totalizer, plan_gte)
from apxmaxsat.satcore import Budget, SatSolver, Status

from conftest import (all_assignments, arithmetic_models, clause_sat, clause_strategy,
                      projected_models, seeded_rng)


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

def assert_every_bound(weights, max_bound, make):
    """For every b <= max_bound, the input projections of a fresh encoding
    made by make(sink) over inputs 1..n are the input sets of weight <= b
    under set_bound(b) and under at_most(b)'s selector, and those of weight
    <= max_bound with the selector retired."""
    inputs = range(1, len(weights) + 1)
    for b in range(max_bound + 1):
        frozen = CnfBuffer(len(weights))
        make(frozen).set_bound(b, frozen)
        assert projected_models(frozen.clauses, inputs) == arithmetic_models(weights, b)
        tried = CnfBuffer(len(weights))
        t = make(tried).at_most(b, tried)
        for unit, bound in (((t,), b), ((-t,), max_bound)):
            assert projected_models(tried.clauses + [unit], inputs) \
                == arithmetic_models(weights, bound)


def test_totalizer_three_inputs_output_semantics():
    assert_every_bound([1, 1, 1], 3, lambda buf: Totalizer([1, 2, 3], buf))


def test_totalizer_single_input_is_identity():
    buf = CnfBuffer(1)
    Totalizer([1], buf)
    assert (buf.num_vars, buf.clauses) == (1, [])  # the input bounds itself
    assert_every_bound([1], 1, lambda buf: Totalizer([1], buf))


def test_totalizer_two_inputs_implications():
    assert_every_bound([1, 1], 2, lambda buf: Totalizer([1, 2], buf))


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
    # 2 + 3 passes max_bound 3: the build alone forbids the pair
    buf = CnfBuffer(2)
    gte = GeneralizedTotalizer([(1, 2), (2, 3)], 3, buf)
    assert not hasattr(gte, "overflow")
    assert_every_bound([2, 3], 3,
                       lambda buf: GeneralizedTotalizer([(1, 2), (2, 3)], 3, buf))
    projections = {tuple(v for v in (1, 2) if a[v]) for a in buffer_models(buf)}
    assert projections == {(), (1,), (2,)}
    gte.set_bound(3, buf)  # at max_bound: nothing left to forbid
    assert {tuple(v for v in (1, 2) if a[v]) for a in buffer_models(buf)} == projections


def test_gte_unit_weights_degenerate_to_counter():
    buf, card = CnfBuffer(3), CnfBuffer(3)
    GeneralizedTotalizer([(1, 1), (2, 1), (3, 1)], 3, buf)
    Totalizer([1, 2, 3], card)
    assert buf.clauses == card.clauses
    assert_every_bound([1, 1, 1], 3, lambda buf: GeneralizedTotalizer(
        [(1, 1), (2, 1), (3, 1)], 3, buf))


def test_gte_single_heavy_input_forced_false():
    buf = CnfBuffer(1)
    GeneralizedTotalizer([(1, 4)], 3, buf)
    assert buf.clauses == [(-1,)]
    assert [a[1] for a in buffer_models(buf)] == [False]
    assert_every_bound([4], 3, lambda buf: GeneralizedTotalizer([(1, 4)], 3, buf))


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
    for b in (-1, 6):  # a selector's bound lies in [0, max_bound] too
        with pytest.raises(ValueError):
            gte.at_most(b, buf)
    gte.at_most(4, buf)  # looser than the frozen bound, so it adds nothing
    with pytest.raises(ValueError):  # a plan is built at its own cap only
        GeneralizedTotalizer([(1, 2), (2, 3)], 4, buf, plan=plan_gte([(1, 2), (2, 3)], 5))


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
    pytest.param(0, 374, 203, "b3969f6ef9b8fbe4", id="seed0"),
    pytest.param(1, 100, 65, "f29af3e23285afc9", id="seed1"),
    pytest.param(2, 41, 32, "8a2fd148360fb2fc", id="seed2"),
    pytest.param(3, 139, 88, "af66a8de86b84bda", id="seed3"),
])
def test_gte_clause_list_is_pinned(seed, clauses, num_vars, digest):
    # the exact clause sequence the solver's search paths depend on
    rng = random.Random(seed)
    items = [(v if rng.random() < 0.5 else -v, rng.randint(1, 60))
             for v in range(1, rng.randint(6, 16) + 1)]
    buf = CnfBuffer(len(items))
    gte = GeneralizedTotalizer(items, sum(w for _, w in items) // 2, buf)
    gte.set_bound(sum(w for _, w in items) // 3, buf)
    gte.at_most(sum(w for _, w in items) // 3 - 1, buf)  # as the search asks next
    assert (len(buf.clauses), buf.num_vars) == (clauses, num_vars)
    assert hashlib.sha256(repr(buf.clauses).encode()).hexdigest()[:16] == digest


def one_pass_gte(items, max_bound, sink):
    """The one-pass merge-tree builder that sizing before emitting split
    in two, with the root's staircase for max_bound, kept as the reference
    for the clauses and variables the GTE makes."""

    def build(pairs):  # -> sums
        if len(pairs) == 1:
            lit, w = pairs[0]
            if w > max_bound:
                sink.add_clause([-lit])
                return []
            return [(w, lit)]
        half = len(pairs) // 2
        lsums = build(pairs[:half])
        rsums = build(pairs[half:])
        reach = {s for s, _ in lsums} | {s for s, _ in rsums}
        cut = {}  # left sum -> least right sum that takes it past max_bound
        for sa, _ in lsums:
            for sb, _ in rsums:
                if sa + sb > max_bound:
                    cut.setdefault(sa, sb)
                else:
                    reach.add(sa + sb)
        out = {s: sink.new_var() for s in sorted(reach)}
        steps = sorted(set(cut.values()))
        rung = {t: sink.new_var() for t in steps}
        for s, l in lsums + rsums:
            sink.add_clause([-l, out[s]])
        for sb, lb in rsums:
            below = [t for t in steps if t <= sb]
            if below:
                sink.add_clause([-lb, rung[below[-1]]])
        for lo, hi in zip(steps, steps[1:]):
            sink.add_clause([-rung[hi], rung[lo]])
        for sa, la in lsums:
            for sb, lb in rsums:
                if sa + sb <= max_bound:
                    sink.add_clause([-la, -lb, out[sa + sb]])
            if sa in cut:
                sink.add_clause([-la, -rung[cut[sa]]])
        return [(s, out[s]) for s in sorted(reach)]

    # the root: a left child and, unless there is one input, a right one;
    # an order variable per right sum and a staircase row per left sum, 0
    # included
    pairs = [(int(l), int(w)) for l, w in items]
    half = len(pairs) // 2 or 1
    lsums = build(pairs[:half])
    rsums = build(pairs[half:]) if pairs[half:] else []
    u = [sink.new_var() for _ in rsums]
    for (_, lb), uj in zip(rsums, u):
        sink.add_clause([-lb, uj])
    for lo, hi in zip(u, u[1:]):
        sink.add_clause([-hi, lo])
    for sa, la in [(0, None)] + lsums:
        over = [j for j, (sb, _) in enumerate(rsums) if sa + sb > max_bound]
        if over:
            sink.add_clause(([] if la is None else [-la]) + [-u[over[0]]])


def test_gte_matches_one_pass_reference_seeded_trials():
    rng = random.Random(4242)
    for trial in range(100):
        weights = random_weights(rng, max_inputs=16, max_weight=60)
        items = [(v if rng.random() < 0.5 else -v, w)
                 for v, w in enumerate(weights, start=1)]
        cap = rng.randint(0, sum(weights))
        two_pass, one_pass = CnfBuffer(len(items)), CnfBuffer(len(items))
        gte = GeneralizedTotalizer(items, cap, two_pass)
        one_pass_gte(items, cap, one_pass)
        assert two_pass.clauses == one_pass.clauses
        assert two_pass.num_vars == one_pass.num_vars
        gte.at_most(rng.randint(0, cap), two_pass)
        if cap:
            gte.set_bound(rng.randint(0, cap - 1), two_pass)


def test_gte_cap_counts_the_charge(monkeypatch):
    # a node is charged exactly the clauses it emits, so a complete build
    # emits its charge: the cap builds at the charge and refuses one clause
    # short of it, leaving the sink untouched
    rng = random.Random(31)
    heavy = lone = guarded = 0
    for trial in range(300):
        weights = random_weights(rng, max_inputs=12,
                                 max_weight=rng.choice((8, 60, 10 ** 6)))
        n = len(weights)
        items = [(v if rng.random() < 0.5 else -v, w)
                 for v, w in enumerate(weights, start=1)]
        cap = rng.randint(0, sum(weights))
        guard = n + 1 if trial % 3 == 0 else None
        plan = plan_gte(items, cap)
        heavy += max(weights) > cap
        lone += n == 1
        guarded += guard is not None
        with monkeypatch.context() as m:
            m.setattr(encodings, "MAX_GTE_CLAUSES", plan.charge)
            planned, at_cap = CnfBuffer(n + 1), CnfBuffer(n + 1)
            GeneralizedTotalizer(items, cap, planned, plan=plan, guard=guard)
            assert plan.charge == len(planned.clauses)
            GeneralizedTotalizer(items, cap, at_cap, guard=guard)
            assert at_cap.clauses == planned.clauses
            m.setattr(encodings, "MAX_GTE_CLAUSES", plan.charge - 1)
            over = CnfBuffer(n + 1)
            with pytest.raises(EncodingTooLarge):
                GeneralizedTotalizer(items, cap, over, guard=guard)
            assert (over.num_vars, over.clauses) == (n + 1, [])
    assert heavy >= 30 and lone >= 10 and guarded >= 30


def test_gte_clauses_hold_at_most_one_positive_created_literal():
    # the condition under which SatSolver reads an unset non-decision
    # variable as False: outputs, rungs, order variables and selectors
    # count as created variables
    rng = random.Random(5150)
    for trial in range(100):
        weights = random_weights(rng, max_inputs=16, max_weight=60)
        n = len(weights)
        items = [(v if rng.random() < 0.5 else -v, w)
                 for v, w in enumerate(weights, start=1)]
        cap = rng.randint(0, sum(weights))
        buf = CnfBuffer(n)
        gte = GeneralizedTotalizer(items, cap, buf)
        if cap:
            gte.set_bound(rng.randint(0, cap - 1), buf)
        gte.at_most(rng.randint(0, cap), buf)
        assert all(sum(l > n for l in c) <= 1 for c in buf.clauses)


def test_gte_guard_bounds_only_while_assumed():
    # every clause that forbids a sum carries the guard's negation: assumed,
    # the guarded encoding bounds as an unguarded one does; retired, it
    # allows every input assignment
    rng = random.Random(6161)
    for trial in range(20):
        weights = random_weights(rng, max_inputs=5, max_weight=8)
        n = len(weights)
        items = list(zip(range(1, n + 1), weights))
        cap = rng.randint(0, sum(weights))

        def assumed(sink):
            guard = sink.new_var(decision=False)
            sink.add_clause([guard])
            return GeneralizedTotalizer(items, cap, sink, guard=guard)

        assert_every_bound(weights, cap, assumed)
        buf = CnfBuffer(n)
        guard = buf.new_var(decision=False)
        gte = GeneralizedTotalizer(items, cap, buf, guard=guard)
        if cap:
            gte.set_bound(rng.randint(0, cap - 1), buf)
        buf.add_clause([gte.at_most(0, buf)])  # kept, as the search keeps one
        # the guard and the selector count as created variables
        assert all(sum(l > n for l in c) <= 1 for c in buf.clauses)
        buf.add_clause([-guard])
        assert len(projected_models(buf.clauses, range(1, n + 1))) == 2 ** n


def test_gte_enforces_max_bound_when_built_seeded_trials():
    rng = random.Random(2718)
    for trial in range(60):
        weights = random_weights(rng, max_inputs=8, max_weight=12)
        n = len(weights)
        cap = rng.randint(0, sum(weights))
        buf = CnfBuffer(n)
        GeneralizedTotalizer(list(zip(range(1, n + 1), weights)), cap, buf)
        assert projected_models(buf.clauses, range(1, n + 1)) \
            == arithmetic_models(weights, cap)


def pairwise_size(plan):
    """The clauses of a GTE on plan's tree with one clause per pair of a
    merge node's children's sums, root included, as before the threshold
    ladder and the staircase: |L| + |R| + |L|*|R| per merge node."""
    def node(left, right):
        nl, nr = len(left[0]), len(right[0])
        return nl + nr + nl * nr

    def walk(p):
        if len(p) == 2:  # a leaf
            return 0
        _, _, left, right = p
        return walk(left) + walk(right) + node(left, right)

    if plan.right is None:
        return walk(plan.left)
    return walk(plan.left) + walk(plan.right) + node(plan.left, plan.right)


def test_gte_fidelity_objective_emits_well_under_the_pairwise_size():
    # the exact objective of a fidelity instance at its first bound, the
    # sum of its mid-tier weights (each pair's u unit comes first)
    f = harness.fidelity_family(seeded_rng(20250810))
    items = [(v, w) for v, (_, w) in enumerate(f.soft, start=1)]
    first_bound = sum(w for _, w in f.soft[0:16:2])
    plan = plan_gte(items, first_bound)
    buf = CnfBuffer(len(items))
    GeneralizedTotalizer(items, first_bound, buf, plan=plan)
    assert len(buf.clauses) < 0.4 * pairwise_size(plan)


def test_gte_over_cap_leaves_sink_untouched():
    # weights 2^0..2^35 reach every sum below 2^36, far past the cap
    items = [(v, 1 << (v - 1)) for v in range(1, 37)]
    buf = CnfBuffer(36)
    with pytest.raises(EncodingTooLarge):
        GeneralizedTotalizer(items, (1 << 36) - 1, buf)
    assert (buf.num_vars, buf.clauses) == (36, [])


def test_gte_build_stops_when_the_budget_runs_out():
    items = [(v, v) for v in range(1, 13)]
    polls = []
    full = CnfBuffer(12)
    GeneralizedTotalizer(items, 78, full, budget=Budget(stop=lambda: polls.append(None)))
    for last in (len(items), len(polls)):  # the first and last poll while emitting
        seen = []

        def stop():
            seen.append(None)
            return len(seen) >= last

        buf = CnfBuffer(12)
        with pytest.raises(EncodingInterrupted):
            GeneralizedTotalizer(items, 78, buf, budget=Budget(stop=stop))
        assert buf.clauses == full.clauses[:len(buf.clauses)] != full.clauses
    # the root is polled once, before it makes anything: stopped at the last
    # poll, exactly the clauses over the root's order variables are missing
    assert full.clauses[len(buf.clauses):] == [
        c for c in full.clauses if any(abs(l) > buf.num_vars for l in c)]
    assert buf.num_vars < full.num_vars
    stopped = CnfBuffer(12)
    with pytest.raises(EncodingInterrupted):
        GeneralizedTotalizer(items, 78, stopped, budget=Budget(timeout_s=0))
    assert (stopped.num_vars, stopped.clauses) == (12, [])  # stopped while sizing


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

    def fits(b):
        return any(all(clause_sat(c, a) for c in clauses)
                   and sum(w for l, w in items if clause_sat([l], a)) <= b
                   for a in all_assignments(n))

    for b in bounds:  # tightened in place, as the search does
        gte.set_bound(b, sink)
        st_, model = solver.solve()
        assert st_ is (Status.SAT if fits(b) else Status.UNSAT)
        if st_ is Status.SAT:  # encoding clauses included
            assert all(clause_sat(c, model) for c in sink.clauses)
        if b:  # then "<= b-1" under a selector, kept or retired by the answer
            t = gte.at_most(b - 1, sink)
            st_, model = solver.solve([t])
            assert st_ is (Status.SAT if fits(b - 1) else Status.UNSAT)
            if st_ is Status.SAT:
                assert all(clause_sat(c, model) for c in sink.clauses)
            sink.add_clause([t if st_ is Status.SAT else -t])
    # every variable the encoder made is left to propagation
    assert not any(solver.decision[n + 1:])


def test_gte_in_solver_agrees_with_enumeration_when_every_backjump_is_chronological(
        monkeypatch):
    # the same cases with T = 0: non-decision outputs, selectors and
    # retirements on trails whose levels do not ascend
    monkeypatch.setattr(satcore, "_CHRONO", 0)
    test_gte_in_solver_agrees_with_enumeration()


def test_cnf_buffer_dimacs():
    buf = CnfBuffer(2)
    buf.add_clause([1, -2])
    v = buf.new_var()
    buf.add_clause([-v])
    assert buf.to_dimacs() == "p cnf 3 2\n1 -2 0\n-3 0\n"


@settings(max_examples=150)
@given(cnf_and_gte(max_vars=6), st.integers(0, 3))
def test_gte_selector_bounds_every_b_and_retires(case, seed):
    # for every b, a model under at_most(b)'s selector exists exactly when
    # one of weight <= b does, every such model weighs <= b, and once the
    # selector is retired the models are those of the encoding as built
    n, clauses, items, cap, _ = case
    solver = SatSolver(n, seed=seed)
    for c in clauses:
        solver.add_clause(c)
    gte = GeneralizedTotalizer(items, cap, solver)

    def weight(a):
        return sum(w for l, w in items if clause_sat([l], a))

    fitting = [a for a in all_assignments(n)
               if all(clause_sat(c, a) for c in clauses) and weight(a) <= cap]
    for b in range(cap + 1):
        t = gte.at_most(b, solver)
        st_, model = solver.solve([t])
        assert st_ is (Status.SAT if any(weight(a) <= b for a in fitting)
                       else Status.UNSAT)
        if st_ is Status.SAT:
            assert weight(model) <= b
        solver.add_clause([-t])
    models = set()
    for a in all_assignments(n):
        if solver.solve([v if a[v] else -v for v in range(1, n + 1)])[0] is Status.SAT:
            models.add(tuple(sorted(a.items())))
    assert models == {tuple(sorted(a.items())) for a in fitting}
