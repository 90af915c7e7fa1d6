import hashlib
import random
import time
from collections import Counter

import numpy
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from apxmaxsat import satcore
from apxmaxsat.satcore import Budget, SatSolver, Status

from conftest import clause_sat, clause_strategy, truth_table_sat


def solve(clauses, num_vars=0, seed=0, **kw):
    s = SatSolver(num_vars, seed=seed)
    for c in clauses:
        s.add_clause(c)
    return s.solve(**kw)


# ----------------------------------------------------------------------
# basics

def test_empty_solver_is_sat():
    st_, model = SatSolver(0).solve()
    assert st_ is Status.SAT and model == {}


def test_direct_contradiction():
    st_, _ = solve([[1], [-1]])
    assert st_ is Status.UNSAT


def test_single_clause_sat():
    st_, model = solve([[1, 2]])
    assert st_ is Status.SAT
    assert model[1] or model[2]


def test_empty_clause_poisons_solver():
    s = SatSolver(2)
    s.add_clause([])
    assert s.solve()[0] is Status.UNSAT
    s.add_clause([1])
    assert s.solve()[0] is Status.UNSAT


def test_variable_range_auto_extends():
    s = SatSolver(4)
    s.add_clause([3, 4])
    assert s.num_vars == 4
    s.add_clause([5])
    assert s.num_vars == 5
    st_, model = s.solve()
    assert st_ is Status.SAT and model[5]


@pytest.mark.parametrize("n", [0, 1, 16, 17, 40])
def test_bulk_built_solver_matches_one_built_by_new_var(n):
    bulk = SatSolver(n, seed=3)
    grown = SatSolver(0, seed=3)
    for _ in range(n):
        grown.new_var()
    for _ in range(2):  # and both grow alike past that
        a, b = dict(vars(bulk)), dict(vars(grown))
        assert a.pop("rng").getstate() == b.pop("rng").getstate()
        assert a == b
        bulk.new_var()
        grown.new_var()


def test_solver_keeps_at_most_29_instance_attributes():
    # a 30th instance attribute made in-process GTE builds about 8% slower
    # (CPython 3.11); new state replaces an attribute or lives on the class
    assert len(vars(SatSolver(3))) <= 29


def test_unsat_two_var_system():
    # (x1 v x2)(~x1 v ~x2)(x1)(x2): checked by enumerating the 4 assignments
    st_, _ = solve([[1, 2], [-1, -2], [1], [2]])
    assert st_ is Status.UNSAT


def test_forced_model():
    st_, model = solve([[1, 2], [-1]])
    assert st_ is Status.SAT
    assert model == {1: False, 2: True}


def test_zero_time_budget_is_unknown():
    st_, model = solve([[1, 2]], budget=Budget(timeout_s=0))
    assert st_ is Status.UNKNOWN and model is None


@pytest.mark.parametrize("timeout_s", [float("nan"), -1.0, float("-inf")])
def test_budget_rejects_nan_or_negative_timeout(timeout_s):
    # nan compares false with every deadline, so it would never run out
    with pytest.raises(ValueError, match="timeout"):
        Budget(timeout_s=timeout_s)


@pytest.mark.parametrize("max_conflicts", [-1, -5])
def test_budget_rejects_negative_conflicts(max_conflicts):
    with pytest.raises(ValueError, match="conflict"):
        Budget(max_conflicts=max_conflicts)


def test_zero_conflict_budget_is_unknown():
    assert solve([[1, 2]], budget=Budget(max_conflicts=0))[0] is Status.UNKNOWN


def test_stop_flag_yields_unknown_and_budgeted_unsat_still_proves():
    # a stop flag that fires immediately on the first conflict
    s = SatSolver(0)
    for c in [[1, 2], [-1, 2], [1, -2], [-1, -2], [3, 4]]:
        s.add_clause(c)
    st_, _ = s.solve(budget=Budget(stop=lambda: True))
    assert st_ in (Status.UNKNOWN, Status.UNSAT)


def test_stop_flag_already_set_is_unknown_on_entry():
    # satisfiable without a single conflict: only the entry check can stop it
    s = SatSolver(0)
    s.add_clause([1, 2])
    st_, model = s.solve(budget=Budget(stop=lambda: True))
    assert st_ is Status.UNKNOWN and model is None
    assert s.stats["decisions"] == 0
    assert s.solve()[0] is Status.SAT


def test_stop_flag_is_polled_every_1024_decisions():
    # no clause, so no conflict: only the poll between decisions can stop it
    polls = []

    def stop():
        polls.append(None)
        return len(polls) > 1  # true after the entry check

    s = SatSolver(2000)
    st_, model = s.solve(budget=Budget(stop=stop))
    assert st_ is Status.UNKNOWN and model is None
    assert s.stats["conflicts"] == 0 and s.stats["decisions"] == 1024
    assert len(polls) == 2


def test_solve_rejects_zero_assumption():
    s = SatSolver(2)
    s.add_clause([1, 2])
    with pytest.raises(ValueError, match="0 is not a literal"):
        s.solve([1, 0])
    assert s.solve([1])[0] is Status.SAT


def test_tautology_and_duplicate_literals():
    st_, model = solve([[1, -1], [2, 2, 3]])
    assert st_ is Status.SAT
    assert model[2] or model[3]


@pytest.mark.parametrize("n", [60, 3000])
def test_learned_clause_limit_starts_at_twice_the_problem_clauses(n):
    # the limit is counted off the watch lists at the first call; count the
    # clauses add_clause attaches here by its own rules instead. Units sit on
    # variables 1..20 only and every other clause keeps two literals above
    # 20, so the units propagate nothing further at level 0
    rng = random.Random(n)
    s = SatSolver(n, seed=1)
    true: set[int] = set()
    attached = 0
    for _ in range(2 * n):
        x, y, z = rng.sample(range(21, n + 1), 3)
        u = rng.choice([-1, 1]) * rng.randint(1, 20)
        lits = rng.choice([
            [x, -y, z],            # attached
            [u, x, y],             # dropped once u holds at level 0
            [x, -x, y],            # tautology
            [x, y, x, -z, y],      # duplicates
            [u, u],                # a unit, or a conflict at level 0
            [rng.randint(1, 20)],  # a unit
        ])
        if len(set(lits)) == 1 and -lits[0] in true:
            continue  # would make the solver UNSAT
        s.add_clause(lits)
        kept = set(lits)
        if len(kept) == 1:
            true |= kept
        elif not any(-l in kept for l in kept) and not kept & true:
            attached += len([l for l in kept if -l not in true]) > 1
    assert true and attached
    assert s.solve(budget=Budget(max_conflicts=50))[0] is not Status.UNSAT
    assert s._max_learnts == max(4000.0, 2.0 * attached)
    limit = s._max_learnts
    s.add_clause(rng.sample(range(21, n + 1), 3))  # a problem clause after the first call
    s.solve(budget=Budget(max_conflicts=50))
    assert s.stats["reductions"] == 0 and s._max_learnts == limit


def test_long_clause_is_added_in_linear_time():
    # scanning the clause so far for every literal takes seconds at this length
    lits = list(range(1, 20001))
    s = SatSolver()
    started = time.perf_counter()
    s.add_clause(lits + lits[::-1])
    s.add_clause(lits + [-20000])
    s.add_clause(iter([-1, *lits[1:], -1]))
    assert time.perf_counter() - started < 1.0
    assert s.arena == [20000, *lits, 20000, -1, *lits[1:]]
    assert s.num_vars == 20000


def reference_add_clause(self, lits) -> None:
    """SatSolver.add_clause as it was written before binary and ternary
    clauses took a short branch: every clause goes through the general
    path."""
    self.clauses_added += 1
    if not self.ok:
        return
    out: list[int] = []
    seen = out  # a set instead once the clause is long
    top = self.num_vars
    for l in lits:
        l = int(l)
        if not -top <= l <= top:
            self._ensure_var(abs(l))
            top = self.num_vars
        elif l == 0:
            raise ValueError("0 is not a literal")
        if l in seen:
            continue
        if -l in seen:
            return  # tautology: always satisfied
        out.append(l)
        if len(out) >= 32:
            if seen is out:
                seen = set(out)
            else:
                seen.add(l)
    if self.trail_lim:
        self._backtrack(0)
    value = self.value
    for l in out:
        if value[l]:
            if 1 in [value[k] for k in out]:
                return  # satisfied at level 0
            out = [k for k in out if not value[k]]  # false ones stay false
            break
    if len(out) > 1:
        self._attach(out)
    elif out:
        self._enqueue(out[0], None)
        if self._propagate() is not None:
            self.ok = False
    else:
        self.ok = False


def short_clause(s, lits) -> bool:
    """Whether lits is what the short branch takes, leaving out its rule that
    no level is open: a list or tuple of two or three ints (type int exactly)
    over distinct free variables in 1..num_vars, while the solver is ok."""
    return (s.ok and type(lits) in (list, tuple) and len(lits) in (2, 3)
            and all(type(l) is int for l in lits)
            and len({abs(l) for l in lits}) == len(lits)
            and all(1 <= abs(l) <= s.num_vars and s.value[l] == 0 for l in lits))


def short_clause_stream(rng, steps, n):
    """A seeded stream of add_clause arguments over variables 1..n, one for
    each of two solvers (equal, or two generators of the same literals), with
    an int now and then for a solve call of that many conflicts; last, an
    empty clause and clauses added after it."""
    for _ in range(steps):
        r = rng.random()
        if r < 0.06:
            yield rng.choice((1, 20))
            continue
        lits = [rng.choice((1, -1)) * rng.randint(1, n)
                for _ in range(rng.choice((2, 3, 3, 3)))]
        if r < 0.45:
            yield lits, lits
        elif r < 0.7:
            yield tuple(lits), tuple(lits)
        elif r < 0.73:
            yield (l for l in lits), (l for l in lits)
        else:
            new = rng.choice((1, -1)) * rng.randint(n + 1, n + 4)  # a new variable
            lits = rng.choice([
                [True, lits[0]],
                [numpy.int64(lits[0]), lits[1]],
                [2.0, lits[0]],
                (lits[0], 0),
                [lits[0], new],
                (lits[0], lits[1], new),
                [lits[0], lits[1], lits[0]],
                (lits[0], -lits[0], lits[1]),
                [lits[0]],
                lits + [rng.randint(1, n) for _ in range(3)],
            ])
            yield lits, lits
    yield [], []
    for _ in range(5):
        lits = [rng.randint(1, n), -rng.randint(1, n)]
        yield lits, lits
        yield 20


def test_short_clauses_attach_as_the_general_path_does():
    # variables 41..50 are non-decision ones, so a SAT answer can leave some
    # of them free; after each solve call that leaves levels open, a clause
    # over free variables comes first, which only the open levels keep off
    # the short branch
    counts = Counter()
    for seed in range(20):
        rng = random.Random(seed)
        ours, ref = SatSolver(40, seed=seed), SatSolver(40, seed=seed)
        for s in (ours, ref):
            for _ in range(10):
                s.new_var(decision=False)
        for args in short_clause_stream(rng, 300, 50):
            if type(args) is int:
                got = ours.solve(budget=Budget(max_conflicts=args))
                assert got == ref.solve(budget=Budget(max_conflicts=args))
                free = [v for v in range(1, ours.num_vars + 1) if not ours.value[v]]
                if got[0] is not Status.SAT or len(free) < 2:
                    continue
                counts["after SAT"] += 1
                lits = [rng.choice((1, -1)) * v
                        for v in rng.sample(free, min(len(free), rng.choice((2, 3))))]
                args = (lits, lits)
            if short_clause(ours, args[0]):
                counts["short" if not ours.trail_lim else "level open"] += 1
            errors = []
            for s, add, lits in ((ours, SatSolver.add_clause, args[0]),
                                 (ref, reference_add_clause, args[1])):
                try:
                    add(s, lits)
                    errors.append(None)
                except ValueError as e:
                    errors.append(str(e))
            assert errors[0] == errors[1]
            for name in ("arena", "watches", "value", "trail", "trail_lim", "ok",
                         "num_vars", "clauses_added", "level", "reason"):
                assert getattr(ours, name) == getattr(ref, name), (seed, name, args)
        assert not ours.ok
    assert counts["short"] >= 100 and counts["level open"] >= 10, counts


def test_model_total_over_isolated_vars():
    st_, model = solve([[2]], num_vars=5)
    assert st_ is Status.SAT
    assert set(model) == {1, 2, 3, 4, 5}


def test_rejects_literal_zero():
    with pytest.raises(ValueError):
        SatSolver(1).add_clause([1, 0])


# ----------------------------------------------------------------------
# incrementality

def test_incremental_additions_respected():
    s = SatSolver(3)
    s.add_clause([1, 2, 3])
    st_, model = s.solve()
    assert st_ is Status.SAT
    s.add_clause([-1])
    s.add_clause([-2])
    st_, model = s.solve()
    assert st_ is Status.SAT
    assert not model[1] and not model[2] and model[3]
    s.add_clause([-3])
    assert s.solve()[0] is Status.UNSAT


def test_unsat_under_assumptions_is_not_permanent():
    s = SatSolver(3)
    s.add_clause([1, 2])
    s.add_clause([3])
    assert s.solve(assumptions=[-1, -2])[0] is Status.UNSAT
    assert s.solve(assumptions=[-3])[0] is Status.UNSAT  # false at level 0
    assert s.ok
    st_, model = s.solve()
    assert st_ is Status.SAT and model[3]
    st_, model = s.solve(assumptions=[-1])
    assert st_ is Status.SAT and not model[1] and model[2]
    s.add_clause([])
    assert s.solve()[0] is Status.UNSAT
    assert s.solve(assumptions=[1])[0] is Status.UNSAT
    assert not s.ok


def test_determinism_per_seed():
    clauses = [[1, 2, 3], [-1, 2], [-2, -3], [1, -3], [2, 3]]
    a = solve(clauses, seed=7)
    b = solve(clauses, seed=7)
    assert a == b


class AlwaysRandom(random.Random):
    """Makes every branching decision a random pick of the last variable."""

    def random(self):
        return 0.0

    def randint(self, a, b):
        return b


def test_non_decision_variable_is_never_decided_and_reads_false():
    s = SatSolver(3, seed=0)
    s.add_clause([1, 2])
    s.add_clause([-2, 3])
    implied = s.new_var(decision=False)  # set and unset by propagation only
    s.add_clause([-1, implied])
    free = s.new_var(decision=False)
    s.rng = AlwaysRandom()  # would pick free at every decision
    picked = []
    pick = s._pick_branch

    def recorded_pick():
        picked.append(pick())
        return picked[-1]

    s._pick_branch = recorded_pick
    for assumptions in ([-3], [], [-1]):  # implied is set, then unset
        st_, model = s.solve(assumptions)
        assert st_ is Status.SAT and model[free] is False
        assert s.value[free] == 0 and model[implied] == model[1]
        for v in (implied, free):
            assert v not in picked and v not in s._order
            assert v not in (u for _, u in s._heap)
    assert picked[-1] is None  # branching ended with no decision variable left


# ----------------------------------------------------------------------
# soundness and completeness at desk scale

@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(clause_strategy(n), max_size=12))))
def test_sat_models_satisfy_every_clause(data):
    n, clauses = data
    s = SatSolver(n)
    for c in clauses:
        s.add_clause(c)
    st_, model = s.solve()
    if st_ is Status.SAT:
        for c in clauses:
            assert clause_sat(c, model)
        # branching only stops once no decision variable is left unassigned
        assert all(s.value[v] != 0 for v in range(1, n + 1))


def random_3cnf(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), min(3, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def test_completeness_vs_exhaustive_enumeration_1000_trials():
    rng = random.Random(20240)
    for trial in range(1000):
        n = rng.randint(4, 20)
        m = int(n * rng.uniform(3.5, 5.0))
        clauses = random_3cnf(rng, n, m)
        s = SatSolver(n, seed=trial)
        for c in clauses:
            s.add_clause(c)
        pick = random.Random(trial)  # leaves the instance sequence unchanged
        assumptions = [v if pick.random() < 0.5 else -v
                       for v in pick.sample(range(1, n + 1), pick.randint(1, 4))]
        for assumed in ([], assumptions):
            st_, model = s.solve(assumptions=assumed)
            forced = clauses + [[l] for l in assumed]
            expected = truth_table_sat(n, forced)
            assert st_ is (Status.SAT if expected else Status.UNSAT), \
                f"trial {trial} assuming {assumed}: solver {st_} vs enumeration {expected}"
            if st_ is Status.SAT:
                for c in forced:
                    assert clause_sat(c, model)


# ----------------------------------------------------------------------
# solver machinery under stress

def pigeonhole(pigeons, holes):
    def var(i, j):
        return (i - 1) * holes + j
    clauses = [[var(i, j) for j in range(1, holes + 1)]
               for i in range(1, pigeons + 1)]
    for j in range(1, holes + 1):
        for i1 in range(1, pigeons + 1):
            for i2 in range(i1 + 1, pigeons + 1):
                clauses.append([-var(i1, j), -var(i2, j)])
    return pigeons * holes, clauses


def test_pigeonhole_unsat_with_restarts_and_deletion():
    n, clauses = pigeonhole(6, 5)
    s = SatSolver(n, seed=1)
    s._max_learnts = 30.0  # force learned-clause deletion to kick in
    for c in clauses:
        s.add_clause(c)
    st_, _ = s.solve()
    assert st_ is Status.UNSAT
    assert s.stats["restarts"] >= 1
    assert s.stats["reductions"] >= 1


def test_pigeonhole_sat_when_holes_suffice():
    n, clauses = pigeonhole(5, 5)
    st_, model = solve(clauses, num_vars=n)
    assert st_ is Status.SAT
    for c in clauses:
        assert clause_sat(c, model)


def test_conflict_budget_interrupts_hard_instance():
    n, clauses = pigeonhole(7, 6)
    st_, _ = solve(clauses, num_vars=n, budget=Budget(max_conflicts=10))
    assert st_ is Status.UNKNOWN


def test_conflict_budget_is_shared_across_calls():
    n, clauses = pigeonhole(7, 6)
    s = SatSolver(n)
    for c in clauses:
        s.add_clause(c)
    budget = Budget(max_conflicts=10)
    assert s.solve(budget=budget)[0] is Status.UNKNOWN
    assert s.stats["conflicts"] == 10 and budget.conflicts_left == 0
    assert s.solve(budget=budget)[0] is Status.UNKNOWN
    assert s.stats["conflicts"] == 10


def test_branching_heap_stays_bounded():
    # a random 3-CNF near the threshold: thousands of bumps and unassignments
    # make variables hot; the order is rebuilt before the heap of hot ones
    # outgrows a fixed share of it
    rng = random.Random(3)
    n = 200
    s = SatSolver(n)
    for _ in range(int(4.2 * n)):
        s.add_clause([v if rng.random() < 0.5 else -v
                      for v in rng.sample(range(1, n + 1), 3)])
    peak = 0
    pick = s._pick_branch

    def measured_pick():
        nonlocal peak
        peak = max(peak, len(s._heap))
        return pick()

    s._pick_branch = measured_pick
    s.solve(budget=Budget(max_conflicts=1500))
    assert s.stats["conflicts"] >= 1000
    assert peak <= n // satcore._HOT_SHARE + satcore._HOT_SLACK
    assert sorted(s._order) == list(range(1, n + 1))


class NeverRandom(random.Random):
    """Makes no branching decision random."""

    def random(self):
        return 1.0


def check_each_pick(s, seen):
    """Make each decision of s assert that it takes the unassigned decision
    variable of least (-activity, v), or None when there is none; counts in
    seen["hot picks"] the decisions that took the hot heap's top."""
    pick = s._pick_branch

    def checked_pick():
        free = [(-s.activity[v], v) for v in range(1, s.num_vars + 1)
                if s.value[v] == 0 and s._pos[v] != satcore._UNORDERED]
        top = s._heap[0][1] if s._heap else None
        v = pick()
        assert v == (min(free)[1] if free else None)
        seen["hot picks"] += v is not None and v == top
        return v

    s._pick_branch = checked_pick


def test_each_decision_takes_the_free_variable_of_least_key():
    seen = {"restarts": 0, "reductions": 0, "rescales": 0, "hot picks": 0, "calls": 0}
    for seed in range(8):
        rng = random.Random(seed)
        n = 80
        s = SatSolver(n, seed=seed)
        s.rng = NeverRandom()
        s._max_learnts = 20.0  # reductions recur
        for c in random_3cnf(rng, n, int(4.3 * n)):
            s.add_clause(c)
        check_each_pick(s, seen)
        for call in range(8):
            if call % 2:
                s.var_inc = 1.01 * satcore._RESCALE_LIMIT  # the first bump rescales
            inc = s.var_inc
            assumed = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, n + 1), rng.randint(0, 3))]
            st_, _ = s.solve(assumed, budget=Budget(max_conflicts=300))
            seen["calls"] += st_ is not Status.UNKNOWN
            seen["rescales"] += s.var_inc < inc
            # between calls: a decision variable a, a non-decision d defined
            # as (x and a), and clauses over them
            a = s.new_var()
            d = s.new_var(decision=False)
            x, y, z = rng.sample(range(1, n + 1), 3)
            for c in ([-x, -a, d], [x, -d], [a, -d], [-d, y, z], [a, -y, x]):
                s.add_clause(c)
        seen["restarts"] += s.stats["restarts"]
        seen["reductions"] += s.stats["reductions"]
    assert all(seen.values()), seen


# ----------------------------------------------------------------------
# pinned search path and clause arena

def forced_reduction_solver():
    """A random 3-CNF near the threshold whose learned-clause limit is
    forced low, so that reductions and arena compactions recur."""
    rng = random.Random(2)
    s = SatSolver(150, seed=5)
    s._max_learnts = 20.0
    for c in random_3cnf(rng, 150, 630):
        s.add_clause(c)
    return s


def model_digest(model):
    return hashlib.sha256(repr(sorted(model.items())).encode()).hexdigest()[:16]


def test_search_path_is_pinned():
    s = forced_reduction_solver()
    got = []
    for assumptions in ([], [1, -2, 3], [-4, 5]):
        st_, model = s.solve(assumptions)
        stats = {k: s.stats[k] for k in ("conflicts", "decisions", "restarts", "reductions")}
        got.append((st_, model and model_digest(model), stats, len(s.learnts)))
    assert got == [
        (Status.SAT, "056aa3a978fd5efd",
         {"conflicts": 1927, "decisions": 2403, "restarts": 5, "reductions": 14}, 543),
        (Status.UNSAT, None,
         {"conflicts": 2410, "decisions": 2987, "restarts": 8, "reductions": 15}, 630),
        (Status.UNSAT, None,
         {"conflicts": 3001, "decisions": 3696, "restarts": 11, "reductions": 16}, 706),
    ]


def test_every_decision_is_enqueued_without_a_reason():
    # solve enqueues a decision inline and leaves reason[v] as it is, which
    # holds only while every unassigned variable's reason is None
    s = forced_reduction_solver()
    pick = s._pick_branch
    picks = 0

    def checked_pick():
        nonlocal picks
        picks += 1
        assert all(s.reason[v] is None for v in range(1, s.num_vars + 1)
                   if s.value[v] == 0)
        return pick()

    s._pick_branch = checked_pick
    for assumptions in ([], [1, -2, 3], [-4, 5]):
        st_, _ = s.solve(assumptions)
        if st_ is Status.SAT:
            assert s.trail_lim and all(
                s.reason[abs(s.trail[lim])] is None and
                s.level[abs(s.trail[lim])] == level
                for level, lim in enumerate(s.trail_lim, start=1))
    assert picks > 3000 and s.stats["reductions"] >= 10


def live_clauses(s):
    c, live = 0, []
    while c < len(s.arena):
        if s.arena[c] > 0:
            live.append(c)
        c += abs(s.arena[c]) + 1
    return live


def test_arena_stays_within_twice_its_live_cells():
    s = forced_reduction_solver()
    compactions = 0
    compact = s._compact

    def counted():
        nonlocal compactions
        compactions += 1
        compact()

    s._compact = counted
    for assumptions in ([], [1, -2, 3], [-4, 5]):
        s.solve(assumptions)
        live = live_clauses(s)
        assert len(s.arena) <= 2 * sum(s.arena[c] + 1 for c in live)
        assert set(s.learnts) <= set(live)
        for c in live:  # every live clause is watched by its first two literals
            assert c in s.watches[s.arena[c + 1]] and c in s.watches[s.arena[c + 2]]
    assert s.stats["reductions"] >= 10 and compactions >= 2


def assert_watches_exact(s):
    """Every live clause is in the watch list of each of its first two
    literals once, and in no other list; deleted clauses may linger until
    a walk or a compaction drops them."""
    want = Counter()
    for c in live_clauses(s):
        want[s.arena[c + 1], c] += 1
        want[s.arena[c + 2], c] += 1
    got = Counter((lit, c) for v in range(1, s.num_vars + 1) for lit in (v, -v)
                  for c in s.watches[lit] if s.arena[c] > 0)
    assert got == want
    assert all(ws is None for ws in s.watches[s.num_vars + 1:len(s.watches) - s.num_vars])


def test_watch_lists_hold_each_live_clause_once_per_watched_literal():
    s = forced_reduction_solver()
    mid_list = 0  # conflicts found before the end of a watch list
    analyze = s._analyze

    def counted(confl, level):
        nonlocal mid_list
        ws = s.watches[s.arena[confl + 2]]  # the list the conflict was found in
        mid_list += ws.index(confl) < len(ws) - 1
        return analyze(confl, level)

    s._analyze = counted
    for assumptions in ([], [1, -2, 3], [-4, 5]):
        s.solve(assumptions)
        assert_watches_exact(s)
    assert mid_list >= 100 and s.stats["reductions"] >= 10


def level_one(clauses, *lits):
    """A solver holding clauses with lits set at level 1, not yet
    propagated."""
    s = SatSolver(8)
    for c in clauses:
        s.add_clause(c)
    s.trail_lim.append(0)
    for l in lits:
        s._enqueue(l, None)
    return s


def test_binary_clause_becomes_unit():
    s = level_one([[1, 2]], -1)
    assert s._propagate() is None
    assert s.arena == [2, 2, 1] and s.value[2] == 1 and s.reason[2] == 0
    assert s.watches[1] == [0] and s.watches[2] == [0]


def test_ternary_clause_moves_its_watch():
    s = level_one([[1, 2, 3]], -1)
    assert s._propagate() is None
    assert s.arena == [3, 2, 3, 1] and s.value[2] == s.value[3] == 0
    assert s.watches[1] == [] and s.watches[2] == [0] and s.watches[3] == [0]


def test_ternary_clause_becomes_unit():
    s = level_one([[1, 2, 3]], -3, -1)
    assert s._propagate() is None
    assert s.arena == [3, 2, 1, 3] and s.value[2] == 1 and s.reason[2] == 0
    assert s.watches[1] == [0] and s.watches[2] == [0] and s.watches[3] == []


def test_long_clause_moves_its_watch_past_false_literals():
    s = level_one([[1, 2, 3, 4, 5]], -3, -4, -1)
    assert s._propagate() is None
    assert s.arena == [5, 2, 5, 3, 4, 1] and s.value[2] == s.value[5] == 0
    assert s.watches[1] == [] and s.watches[5] == [0]


def test_conflict_keeps_the_watchers_after_it():
    # watches[1]: a satisfied clause, one that moves its watch, the
    # conflict, then two clauses the walk never reaches
    s = level_one([[1, 5], [1, 7, 8], [1, 2], [1, 3, 4], [1, 6]], 5, -1, -2)
    assert s.watches[1] == [0, 3, 7, 10, 14]
    assert s._propagate() == 7
    assert s.watches[1] == [0, 7, 10, 14] and s.watches[8] == [3]
    assert s.arena == [2, 5, 1, 3, 7, 8, 1, 2, 2, 1, 3, 1, 3, 4, 2, 1, 6]
    assert s.qhead == len(s.trail) and s.value[3] == s.value[6] == 0
    assert_watches_exact(s)


def test_propagations_counted_per_solve():
    runs = []
    for _ in range(2):
        s = forced_reduction_solver()
        s.solve()
        runs.append(dict(s.stats))
    assert runs[0] == runs[1]
    assert set(runs[0]) == {"conflicts", "decisions", "restarts", "reductions",
                            "propagations"}
    assert runs[0]["propagations"] > runs[0]["decisions"] > 0


# ----------------------------------------------------------------------
# chronological backtracking

def count_chronological_steps(s, seen):
    """Count in seen the learned literals asserted below the current level
    and the backtracks that keep literals above their cut."""
    record, backtrack = s._record, s._backtrack

    def counted_record(learnt, lvl):
        seen["asserted below the top"] += lvl < len(s.trail_lim)
        record(learnt, lvl)

    def counted_backtrack(target):
        if len(s.trail_lim) > target:
            above = s.trail[s.trail_lim[target]:]
            seen["kept"] += any(s.level[abs(l)] <= target for l in above)
        backtrack(target)

    s._record, s._backtrack = counted_record, counted_backtrack


def assert_implication_levels(s):
    """Every implied literal sits at the highest level of its reason's
    other literals."""
    for lit in s.trail:
        r = s.reason[abs(lit)]
        if r is not None:
            assert s.arena[r + 1] == lit
            others = s.arena[r + 2:r + 1 + s.arena[r]]
            assert s.level[abs(lit)] == max(s.level[abs(q)] for q in others)


def test_every_backjump_chronological_agrees_with_enumeration(monkeypatch):
    # T = 0: every conflict backtracks one level below its own and asserts
    # on top; clauses arrive between calls, each call under fresh assumptions
    monkeypatch.setattr(satcore, "_CHRONO", 0)
    rng = random.Random(2323)
    seen = Counter()
    for trial in range(400):
        n = rng.randint(8, 12)
        s = SatSolver(n, seed=trial)
        count_chronological_steps(s, seen)
        clauses = []
        for call in range(8):  # a random 3-CNF that grows towards UNSAT
            for _ in range(rng.randint(n // 2, n)):
                vs = rng.sample(range(1, n + 1), 3)
                clauses.append([v if rng.random() < 0.5 else -v for v in vs])
                s.add_clause(clauses[-1])
            assumed = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, n + 1), rng.randint(0, 3))]
            st_, model = s.solve(assumed)
            forced = clauses + [[l] for l in assumed]
            expected = truth_table_sat(n, forced)
            assert st_ is (Status.SAT if expected else Status.UNSAT), (trial, call)
            if st_ is Status.SAT:
                assert all(clause_sat(c, model) for c in forced), (trial, call)
                assert_implication_levels(s)
            assert_watches_exact(s)
            seen[st_] += 1
    assert min(seen.values()) >= 100, seen


def chain_after_free_variables(free):
    """free unconstrained variables, then a, b, c with every clause of
    (a or b or c) and its sign flips over b and c, and (not a or d):
    branched last, a false is refuted by a conflict that learns the unit
    a, which implies d."""
    s = SatSolver(free + 4, seed=1)
    s.rng = NeverRandom()
    a, b, c, d = range(free + 1, free + 5)
    clauses = [[a, x, y] for x in (b, -b) for y in (c, -c)] + [[-a, d]]
    for cl in clauses:
        s.add_clause(cl)
    return s, a, d, clauses


def test_far_backjump_keeps_the_levels_below_the_conflict(monkeypatch):
    free = 150  # a unit learned at level 151 jumps more than _CHRONO levels
    s, a, d, clauses = chain_after_free_variables(free)
    st_, model = s.solve()
    assert st_ is Status.SAT and all(clause_sat(c, model) for c in clauses)
    # a is asserted, and d implied, at level 0 on top of the kept levels
    assert model[a] and model[d] and s.level[a] == s.level[d] == 0
    assert s.trail.index(a) > s.trail_lim[free - 1]
    assert_implication_levels(s)
    # the free variables' decisions were made once and are all still there
    assert len(s.trail_lim) >= free
    assert [s.trail[lim] for lim in s.trail_lim[:free]] == [-v for v in range(1, free + 1)]
    assert s.stats["decisions"] < 2 * free
    # the next call starts from level 0, where the trail is in order again
    assert s.solve()[0] is Status.SAT and s._mixed == -1
    # a backjump to level 0 would make every one of them again
    monkeypatch.setattr(satcore, "_CHRONO", free + 10)
    s, a, d, _ = chain_after_free_variables(free)
    assert s.solve()[0] is Status.SAT and s.level[a] == s.level[d] == 0
    assert s.stats["decisions"] > 2 * free
