import hashlib
import random
import time
from dataclasses import replace

import pytest

from apxmaxsat import clustering, encodings, harness, search, wcnf
from apxmaxsat.encodings import CnfBuffer, EncodingInterrupted, EncodingTooLarge
from apxmaxsat.satcore import Budget, Status
from apxmaxsat.search import (APX_SUBPROB, APX_WEIGHT,
                              OPTIMUM_FOR_APPROXIMATION, SATISFIABLE,
                              UNKNOWN, UNSATISFIABLE, SearchConfig)

from conftest import seeded_rng


def weight_cfg(m, **kw):
    return SearchConfig(algorithm=APX_WEIGHT, clusters=m, **kw)


def subprob_cfg(m, **kw):
    return SearchConfig(algorithm=APX_SUBPROB, clusters=m, **kw)


# ----------------------------------------------------------------------
# apx-weight on the worked instance

def test_apx_weight_exact_mode_finds_optimum(e1):
    report = search.solve(e1, weight_cfg(0))
    assert report.status == OPTIMUM_FOR_APPROXIMATION
    assert report.best.true_cost == 2
    assert report.bounds == [2]


def test_apx_weight_single_cluster(e1):
    # one cluster: both weights become 3; the minimum approximated cost is 3
    report = search.solve(e1, weight_cfg(1))
    assert report.status == OPTIMUM_FOR_APPROXIMATION
    assert report.bounds == [3]
    assert report.best.true_cost in (2, 3)
    assert report.best.approx_cost == 3


def test_apx_weight_no_soft_clauses():
    f = wcnf.parse_wcnf("p wcnf 2 1 5\n5 1 2 0\n")
    for cfg, m in ((weight_cfg(0), 0), (weight_cfg(3), 3), (subprob_cfg("weights"), 0)):
        report = search.solve(f, cfg)
        assert report.status == OPTIMUM_FOR_APPROXIMATION
        assert report.best.true_cost == 0
        assert report.clusters == m  # the resolved m, as with soft clauses


def test_hard_unsat_reported(hard_unsat):
    for cfg in (weight_cfg(0), subprob_cfg(1)):
        report = search.solve(hard_unsat, cfg)
        assert report.status == UNSATISFIABLE
        assert report.best is None and report.trace == []


def test_improvement_callback_order(e1):
    seen = []
    report = search.solve(e1, weight_cfg(0), on_improve=lambda m: seen.append(m))
    assert [m.true_cost for m in seen] == [c for _, c in report.trace]
    assert seen[-1].true_cost == report.best.true_cost


def test_report_cost_and_elapsed_follow_the_trace(hard_unsat):
    rng = seeded_rng(4242)
    for trial in range(10):
        f = harness.random_wcnf(rng)
        for cfg in (weight_cfg(2, seed=trial), subprob_cfg("weights", seed=trial)):
            report = search.solve(f, cfg)
            assert report.cost == report.best.true_cost
            assert report.trace[-1][0] <= report.elapsed
            # read from the trace, so a report whose model is dropped keeps it
            assert replace(report, best=None).cost == report.cost
    report = search.solve(hard_unsat, weight_cfg(0))
    assert report.cost is None and 0 <= report.elapsed
    assert search.SearchReport(None, UNKNOWN).clusters is None  # no search ran


# ----------------------------------------------------------------------
# apx-subprob on the worked instances

def test_apx_subprob_two_clusters(e1):
    report = search.solve(e1, subprob_cfg(2))
    assert report.status == OPTIMUM_FOR_APPROXIMATION
    assert report.best.true_cost == 2
    assert report.bounds == [0, 1]  # heavy cluster frozen at 0


def test_apx_subprob_greedy_can_be_suboptimal():
    f = wcnf.parse_wcnf(
        "p wcnf 2 4 9\n9 1 2 0\n5 -1 0\n3 -2 0\n3 -2 0\n")
    assert harness.brute_force_optimum(f)[0] == 5
    report = search.solve(f, subprob_cfg(2))
    assert report.status == OPTIMUM_FOR_APPROXIMATION
    assert report.best.true_cost == 6  # heavy cluster frozen first locks x1=False


def test_apx_subprob_single_cluster_counts_clauses(e1):
    report = search.solve(e1, subprob_cfg(1))
    assert report.best.true_cost in (2, 3)
    unsat = sum(1 for c, _ in e1.soft
                if not c.satisfied_by(report.best.assignment))
    assert unsat == 1


def test_apx_subprob_keeps_one_solver_across_clusters(monkeypatch):
    # weights 100 > 10+10+1+1+1 and 10 > 1+1+1: multilevel-dominant, 3 clusters
    f = wcnf.parse_wcnf(
        "p wcnf 4 10 1000\n1000 1 2 0\n1000 2 3 0\n1000 3 4 0\n"
        "100 -1 0\n10 -2 0\n10 -3 0\n1 -4 0\n1 2 0\n1 -2 -3 0\n"
        "100 4 0\n")
    part, _ = clustering.partition(f, clustering.distinct_weight_count(f))
    assert len(part.clusters) == 3 and clustering.is_bmo(f, part)
    built = []
    real = search.SatSolver

    def counting(*args, **kw):
        built.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(search, "SatSolver", counting)
    report = search.solve(f, subprob_cfg("weights"))
    assert len(built) == 1
    assert report.status == OPTIMUM_FOR_APPROXIMATION
    assert report.best.true_cost == harness.brute_force_optimum(f)[0]
    # an optimum of a multilevel-dominant instance meets every frozen count
    assert report.bounds == [
        sum(not f.soft[i][0].satisfied_by(report.best.assignment) for i in cl)
        for cl in reversed(part.clusters)]


def test_apx_subprob_counter_is_unit_gte_capped_at_first_count(monkeypatch):
    # weights 100 > 10+10+10+1+1+1+1 and 10 > 1+1+1+1: multilevel-dominant,
    # 3 clusters; each x/-x soft pair is violated once by every model, so
    # every cluster's first count is at least 1
    f = wcnf.parse_wcnf(
        "p wcnf 5 10 1000\n1000 1 2 3 0\n100 1 0\n100 -1 0\n"
        "10 2 0\n10 -2 0\n10 5 0\n1 3 0\n1 -3 0\n1 4 0\n1 -4 0\n")
    part, _ = clustering.partition(f, clustering.distinct_weight_count(f))
    assert len(part.clusters) == 3 and clustering.is_bmo(f, part)
    lits = wcnf.relax(f)
    cluster_of = {frozenset(lits[i] for i in members): ci
                  for ci, members in enumerate(part.clusters)}
    models = []
    built = []

    class Recording(search.SatSolver):
        def solve(self, *args, **kw):
            st, model = super().solve(*args, **kw)
            if st is Status.SAT:
                models.append(model)
            return st, model

    real = search.GeneralizedTotalizer

    def spy(items, max_bound, sink, **kw):
        items = list(items)
        first_count = sum(search.holds(models[-1], lit) for lit, _ in items)
        built.append((cluster_of[frozenset(lit for lit, _ in items)],
                      [w for _, w in items], max_bound, first_count))
        return real(items, max_bound, sink, **kw)

    monkeypatch.setattr(search, "SatSolver", Recording)
    monkeypatch.setattr(search, "GeneralizedTotalizer", spy)
    report = search.solve(f, subprob_cfg("weights"))
    assert report.status == OPTIMUM_FOR_APPROXIMATION
    assert report.best.true_cost == harness.brute_force_optimum(f)[0]
    assert [ci for ci, *_ in built] == [2, 1, 0]  # heaviest cluster first
    frozen = dict(zip([ci for ci, *_ in built], report.bounds))
    for ci, weights, max_bound, first_count in built:
        assert weights == [1] * len(part.clusters[ci])
        assert max_bound == first_count >= frozen[ci] >= 1


def test_apx_subprob_rejects_zero_clusters(e1):
    with pytest.raises(ValueError):
        search.solve(e1, subprob_cfg(0))


@pytest.mark.parametrize("algorithm, clusters", [
    ("bogus", "weights"), (APX_SUBPROB, 0), (APX_SUBPROB, -1),
    (APX_WEIGHT, -1), (APX_WEIGHT, "3"), (APX_WEIGHT, 1.0), (APX_WEIGHT, True)])
def test_config_rejects_bad_algorithm_or_clusters_at_construction(algorithm, clusters):
    with pytest.raises(ValueError):
        SearchConfig(algorithm=algorithm, clusters=clusters)


def test_config_cannot_be_changed_after_its_check():
    cfg = subprob_cfg(1)
    with pytest.raises(AttributeError):
        cfg.clusters = 0


def test_weights_sentinel_resolves(e1):
    assert search.resolve_clusters(e1, "weights") == 2
    assert search.resolve_clusters(e1, 5) == 5


# ----------------------------------------------------------------------
# check_hard

def test_check_hard():
    st, _ = search.check_hard(wcnf.parse_wcnf("p wcnf 1 2 5\n5 1 0\n5 -1 0\n"))
    assert st is Status.UNSAT
    st, model = search.check_hard(wcnf.parse_wcnf("p wcnf 2 1 5\n5 1 2 0\n"))
    assert st is Status.SAT and (model[1] or model[2])
    st, model = search.check_hard(wcnf.WcnfFormula(2, [], [(wcnf.Clause.of([1]), 1)]))
    assert st is Status.SAT and set(model) == {1, 2}


# ----------------------------------------------------------------------
# budget handling

def test_conflict_budget_interrupts(e1):
    # budget too small to even get the first model
    report = search.solve(e1, weight_cfg(0, max_conflicts=0))
    assert report.status == UNKNOWN and report.best is None


def test_conflict_budget_is_shared_by_every_solver_call(monkeypatch):
    # hard random 3-CNF with soft units of weights 1/10/100: 3 clusters, and
    # the conflicts of one search spread over several solver calls
    rng = seeded_rng(1)
    n = 40
    hard = []
    for _ in range(3 * n):
        vs = rng.sample(range(1, n + 1), 3)
        hard.append(wcnf.Clause.of([v if rng.random() < 0.5 else -v for v in vs]))
    soft = [(wcnf.Clause.of([v if rng.random() < 0.5 else -v]),
             rng.choice((1, 10, 100))) for v in range(1, n + 1)]
    f = wcnf.WcnfFormula(n, hard, soft)
    assert len(clustering.partition(f, 3)[0].clusters) == 3
    calls = []

    class Spy(search.SatSolver):
        def solve(self, assumptions=(), budget=None):
            before = self.stats["conflicts"]
            result = super().solve(assumptions, budget)
            calls.append((self.stats["conflicts"] - before, budget))
            return result

    monkeypatch.setattr(search, "SatSolver", Spy)
    k = 30
    report = search.solve(f, subprob_cfg(3, max_conflicts=k))
    assert report.status == SATISFIABLE
    budget = calls[0][1]
    assert budget is not None and all(b is budget for _, b in calls)
    spent = [c for c, _ in calls]
    assert sum(1 for c in spent if c) > 1
    assert sum(spent) <= k and budget.conflicts_left == k - sum(spent)


def test_nan_timeout_is_rejected(e1):
    with pytest.raises(ValueError, match="timeout"):
        search.solve(e1, SearchConfig(timeout_s=float("nan")))
    with pytest.raises(ValueError, match="timeout"):
        search.check_hard(e1, timeout_s=float("nan"))


def test_stop_flag_interrupts(e1):
    report = search.solve(e1, subprob_cfg(2, stop=lambda: True))
    assert report.status == UNKNOWN and report.best is None


def test_budget_out_in_the_first_sat_call_ends_unknown(e1):
    polls = []

    def stop():
        polls.append(None)
        return len(polls) > 1  # true after the search's entry check

    report = search.solve(e1, weight_cfg(0, stop=stop))
    assert report.status == UNKNOWN and report.best is None
    assert report.trace == [] and report.encoders == []
    assert set(report.solver_stats) == {"conflicts", "decisions", "restarts",
                                        "reductions", "propagations"}
    assert len(polls) == 2


def test_budget_mid_search_returns_best_so_far():
    rng = seeded_rng(5150)
    f = harness.random_wcnf(rng, max_vars=14, max_clauses=28)
    calls = []

    def stop():
        return len(calls) >= 1

    report = search.solve(f, weight_cfg(0, stop=stop),
                          on_improve=lambda m: calls.append(m))
    if report.best is not None:
        assert report.status == SATISFIABLE
        assert report.best.true_cost == calls[0].true_cost


def test_stop_during_encoding_ends_with_first_model(e1, monkeypatch):
    # as a SIGTERM arriving while the GTE is built: every model of e1 pays
    # a soft clause, so the search builds one after its first model
    started = []
    real = search.GeneralizedTotalizer

    def gte(*args, **kw):
        started.append(True)
        return real(*args, **kw)

    monkeypatch.setattr(search, "GeneralizedTotalizer", gte)
    models = []
    report = search.solve(e1, weight_cfg(0, stop=lambda: bool(started)),
                          on_improve=models.append)
    assert started and report.status == SATISFIABLE and not report.exact
    assert models == [report.best]


# ----------------------------------------------------------------------
# encodings over the cap

def wide_weights(rng, n):
    """n soft units -x with distinct weights up to 1e6, paired by hard
    clauses (x_a or x_b): the exact GTE grows as 2^n."""
    hard = [wcnf.Clause.of([2 * i + 1, 2 * i + 2]) for i in range(n // 2)]
    soft = [(wcnf.Clause.of([-v]), w)
            for v, w in enumerate(rng.sample(range(1, 10 ** 6 + 1), n), start=1)]
    return wcnf.WcnfFormula(n, hard, soft)


def three_tier(rng, n=120):
    """Random 3-CNF of 3n clauses with n soft 2-clauses whose weights lie
    in three tiers: 1-10, 100-200 and 1000-5000."""
    def lits(k):
        return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]

    tiers = ((1, 10), (100, 200), (1000, 5000))
    hard = [wcnf.Clause.of(lits(3)) for _ in range(3 * n)]
    soft = [(wcnf.Clause.of(lits(2)), rng.randint(*rng.choice(tiers))) for _ in range(n)]
    return wcnf.WcnfFormula(n, hard, soft)


@pytest.mark.parametrize("make, timeout_s", [
    (lambda rng: wide_weights(rng, 44), 2.0),
    (three_tier, 3.0),
])
def test_over_cap_exact_search_returns_a_model_in_time(make, timeout_s):
    f = make(seeded_rng(24))
    started = time.monotonic()
    report = search.solve(f, weight_cfg(0, timeout_s=timeout_s))
    assert time.monotonic() - started <= timeout_s + 0.5
    assert report.status == SATISFIABLE and not report.exact
    assert report.fallbacks and report.clusters == report.fallbacks[-1][1] >= 1
    verdict, cost = wcnf.check_model(f, report.best.assignment)
    assert verdict == "valid" and cost == report.best.true_cost


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_wide_weights_at_19_units_solve_exactly(seed):
    # the exact GTE at the first bound emits a few thousand clauses, well
    # under the cap, and is warm-started from floored weights
    f = wide_weights(seeded_rng(seed), 19)
    report = search.solve(f, weight_cfg(0))
    assert report.exact and report.fallbacks == [] and report.warm is not None
    assert report.cost == harness.brute_force_optimum(f)[0]


def test_fallback_minimizes_the_coarser_clusters(monkeypatch):
    monkeypatch.setattr(encodings, "MAX_GTE_CLAUSES", 50)
    partition = clustering.partition
    schemes = []  # every weight scheme the search partitions, in order

    def spy(f, m):
        part, scheme = partition(f, m)
        schemes.append(scheme)
        return part, scheme

    monkeypatch.setattr(clustering, "partition", spy)
    rng = seeded_rng(8080)
    fitted = 0
    priced_after_fallback = 0
    for trial in range(25):
        f = harness.random_wcnf(rng, max_vars=10, max_clauses=16)
        found = []  # each improving model with the scheme searched when found
        report = search.solve(f, weight_cfg(0, seed=trial),
                              on_improve=lambda x: found.append((x, schemes[-1])))
        searched = partition(f, report.clusters)[1]
        assert schemes[-1].weight_m == searched.weight_m
        for model, scheme in found:
            assert model.approx_cost == wcnf.cost(f, model.assignment,
                                                  weights=scheme.weight_m)
        if found[-1][1] is schemes[-1]:  # best found under the searched scheme
            assert report.best.approx_cost == wcnf.cost(
                f, report.best.assignment, weights=searched.weight_m)
            priced_after_fallback += bool(report.fallbacks)
        if not report.fallbacks:
            assert report.status == OPTIMUM_FOR_APPROXIMATION and report.clusters == 0
            continue
        assert report.status == SATISFIABLE and not report.exact
        refused = [a for a, _ in report.fallbacks]
        retried = [b for _, b in report.fallbacks]
        # from the distinct-weight count, halving, each retry refused next
        assert refused[0] == clustering.distinct_weight_count(f)
        assert retried[:-1] == refused[1:] == [a // 2 for a in refused[:-1]]
        if retried[-1] is not None:
            fitted += 1
            assert retried[-1] == refused[-1] // 2 == report.clusters
            assert report.bounds == [
                harness.brute_force_optimum(f, weights=searched.weight_m)[0]]
    assert fitted >= 5 and priced_after_fallback >= 3


def test_best_model_is_repriced_under_the_scheme_fallen_back_to(monkeypatch):
    # the best model is found before the fallbacks and never improved on
    monkeypatch.setattr(encodings, "MAX_GTE_CLAUSES", 50)
    rng = seeded_rng(8080)
    for _ in range(12):
        f = harness.random_wcnf(rng, max_vars=10, max_clauses=16)
    found = []
    report = search.solve(f, weight_cfg(0, seed=11), on_improve=found.append)
    assert report.fallbacks and report.clusters == 1 and len(report.trace) == 1
    searched = clustering.partition(f, report.clusters)[1]
    assert report.best.approx_cost == wcnf.cost(f, report.best.assignment,
                                                weights=searched.weight_m)
    # the model given to on_improve keeps the price it was found at
    assert found[0].approx_cost == found[0].true_cost != report.best.approx_cost


def test_over_cap_counter_without_coarser_lever_keeps_first_model(monkeypatch):
    # one weight, and one of the two soft units is paid by every model
    f = wcnf.parse_wcnf("p wcnf 2 3 10\n10 1 2 0\n3 -1 0\n3 -2 0\n")
    monkeypatch.setattr(encodings, "MAX_GTE_CLAUSES", 0)
    for cfg in (subprob_cfg("weights"), weight_cfg(0)):
        models = []
        report = search.solve(f, cfg, on_improve=models.append)
        assert report.status == SATISFIABLE and not report.exact
        assert report.fallbacks == [(1, None)] and models == [report.best]


# ----------------------------------------------------------------------
# seeded properties against the oracle

def test_exact_mode_matches_oracle_sample():
    rng = seeded_rng(90125)
    for trial in range(40):
        f = harness.random_wcnf(rng)
        opt = harness.brute_force_optimum(f)
        report = search.solve(f, weight_cfg(0, seed=trial))
        assert report.status == OPTIMUM_FOR_APPROXIMATION
        assert report.best.true_cost == opt[0]


def test_approximation_safety_and_monotone_traces():
    rng = seeded_rng(2600)
    for trial in range(15):
        f = harness.random_wcnf(rng)
        opt = harness.brute_force_optimum(f)[0]
        nweights = clustering.distinct_weight_count(f)
        for m in (1, 2, nweights):
            for make in (weight_cfg, subprob_cfg):
                if make is subprob_cfg and m < 1:
                    continue
                models = []
                report = search.solve(f, make(m, seed=trial),
                                      on_improve=lambda x: models.append(x))
                assert report.best.true_cost >= opt
                costs = [c for _, c in report.trace]
                assert costs == sorted(costs, reverse=True)
                assert len(set(costs)) == len(costs)
                for model in models:
                    verdict, c = wcnf.check_model(f, model.assignment)
                    assert verdict == "valid" and c == model.true_cost


def test_final_mu_is_minimum_approximated_cost():
    rng = seeded_rng(1999)
    for trial in range(12):
        f = harness.random_wcnf(rng, max_vars=10, max_clauses=16)
        for m in (0, 1, 2):
            _, scheme = clustering.partition(f, m)
            report = search.solve(f, weight_cfg(m, seed=trial))
            assert report.status == OPTIMUM_FOR_APPROXIMATION
            oracle_m = harness.brute_force_optimum(f, weights=scheme.weight_m)
            assert report.bounds == [oracle_m[0]]


def test_apx_weight_identity_at_full_cluster_count():
    rng = seeded_rng(314)
    for trial in range(8):
        f = harness.random_wcnf(rng, max_vars=10, max_clauses=14)
        nweights = clustering.distinct_weight_count(f)
        base = search.solve(f, weight_cfg(0, seed=trial))
        same = search.solve(f, weight_cfg(nweights, seed=trial))
        assert base.bounds == same.bounds
        assert base.best.true_cost == same.best.true_cost


def test_bmo_families_solved_exactly_sample():
    rng = seeded_rng(777)
    for trial in range(10):
        f = harness.random_bmo_wcnf(rng)
        m = clustering.distinct_weight_count(f)
        part, _ = clustering.partition(f, m)
        assert clustering.is_bmo(f, part)
        opt = harness.brute_force_optimum(f)[0]
        report = search.solve(f, subprob_cfg("weights", seed=trial))
        assert report.status == OPTIMUM_FOR_APPROXIMATION
        assert report.best.true_cost == opt


def test_exact_reports_are_optimal():
    rng = seeded_rng(4711)
    exact_runs = 0
    for trial in range(20):
        f = harness.random_wcnf(rng, max_vars=12, max_clauses=20)
        opt = harness.brute_force_optimum(f)[0]
        nweights = clustering.distinct_weight_count(f)
        for cfg in (weight_cfg(0), weight_cfg(1), weight_cfg(2),
                    weight_cfg(nweights), weight_cfg("weights"),
                    weight_cfg(0, max_conflicts=0), subprob_cfg(1),
                    subprob_cfg("weights")):
            report = search.solve(f, replace(cfg, seed=trial))
            if report.exact:
                exact_runs += 1
                assert report.status == OPTIMUM_FOR_APPROXIMATION
                assert cfg.algorithm == APX_WEIGHT
                assert report.best.true_cost == opt
            elif cfg.algorithm == APX_WEIGHT and cfg.clusters in (0, "weights"):
                assert report.status != OPTIMUM_FOR_APPROXIMATION
    assert exact_runs >= 3 * 20


# ----------------------------------------------------------------------
# the floored stage before a big exact build

def test_floored_bound_does_not_cut_off_the_optimum(monkeypatch):
    # x1=1, x2=2, y1..y7=3..9, z=10, m=11: flooring by k=1 drops the y units;
    # the first model (every y, and z) has floored cost 1 and true cost 9,
    # the optimum (x1, x2) floored cost 2 and true cost 4, so the floored
    # bound, left unguarded, would forbid the optimum for good
    monkeypatch.setattr(search, "WARM_CHARGE", 0)
    ys = range(3, 10)
    hard = ([wcnf.Clause.of([1, y]) for y in ys] + [wcnf.Clause.of([2, y]) for y in ys]
            + [wcnf.Clause.of([10, 1])])
    soft = ([(wcnf.Clause.of([-1]), 2), (wcnf.Clause.of([-2]), 2)]
            + [(wcnf.Clause.of([-y]), 1) for y in ys]
            + [(wcnf.Clause.of([-10]), 2), (wcnf.Clause.of([-11]), 8)])
    f = wcnf.WcnfFormula(11, hard, soft)
    assert harness.brute_force_optimum(f)[0] == 4
    planned = []

    def plan_gte(items, max_bound, budget=None):
        planned.append(len(items))
        return encodings.plan_gte(items, max_bound, budget)

    monkeypatch.setattr(search, "plan_gte", plan_gte)
    report = search.solve(f, weight_cfg(0))
    assert report.warm == (1, 1, 1) and report.trace[0][1] == 9
    assert report.status == OPTIMUM_FOR_APPROXIMATION and report.exact
    assert report.cost == 4
    # the floored encoding (x1, x2, z, m) is sized and built between the
    # exact one's sizing at the first bound and its build at the best cost
    assert planned == [11, 4, 11]
    assert [e.inputs for e in report.encoders] == [4, 11]
    # without the stage the build uses the one plan made to size it
    monkeypatch.setattr(search, "WARM_CHARGE", 1 << 15)
    planned.clear()
    report = search.solve(f, weight_cfg(0))
    assert report.exact and report.cost == 4 and report.warm is None
    assert planned == [11] and [e.inputs for e in report.encoders] == [11]


def floored_to_four():
    """The instance above: x1=1, x2=2, y1..y7=3..9, z=10, m=11, where
    flooring by k=1 keeps the 4 inputs of x1, x2, z and m out of 11."""
    ys = range(3, 10)
    hard = ([wcnf.Clause.of([1, y]) for y in ys] + [wcnf.Clause.of([2, y]) for y in ys]
            + [wcnf.Clause.of([10, 1])])
    soft = ([(wcnf.Clause.of([-1]), 2), (wcnf.Clause.of([-2]), 2)]
            + [(wcnf.Clause.of([-y]), 1) for y in ys]
            + [(wcnf.Clause.of([-10]), 2), (wcnf.Clause.of([-11]), 8)])
    return wcnf.WcnfFormula(11, hard, soft)


def test_floored_encoding_over_the_cap_skips_the_stage(monkeypatch):
    monkeypatch.setattr(search, "WARM_CHARGE", 0)
    f = floored_to_four()

    def plan_gte(items, max_bound, budget=None):
        if len(items) == 4:  # the floored objective
            raise EncodingTooLarge("refused")
        return encodings.plan_gte(items, max_bound, budget)

    monkeypatch.setattr(search, "plan_gte", plan_gte)
    report = search.solve(f, weight_cfg(0))
    assert report.warm is None and [e.inputs for e in report.encoders] == [11]
    assert report.status == OPTIMUM_FOR_APPROXIMATION and report.exact
    assert report.cost == harness.brute_force_optimum(f)[0]


def stop_at(n):
    """A stop flag that turns true at its n-th poll."""
    polls = []
    return lambda: polls.append(None) or len(polls) >= n


@pytest.mark.parametrize("phase", ["sizing", "building"])
def test_budget_out_in_the_floored_stage_keeps_a_valid_model(monkeypatch, phase):
    # the budget runs out at the floored encoding's first poll while it is
    # sized, or at its last, the root's, while it is built
    monkeypatch.setattr(search, "WARM_CHARGE", 0)
    f = floored_to_four()
    armed = []  # the stop flag the search polls, once the phase starts
    expected = []

    def plan_gte(items, max_bound, budget=None):
        if phase == "sizing" and len(items) == 4:
            armed.append(stop_at(1))
        return encodings.plan_gte(items, max_bound, budget)

    real = search.GeneralizedTotalizer

    def gte(items, max_bound, sink, *, plan, guard=None, **kw):
        if phase == "building" and guard is not None:
            # the same build into a buffer: count its polls, then stop a
            # second one at the last of them for the clauses it leaves
            polls = []
            real(items, max_bound, CnfBuffer(sink.num_vars), plan=plan, guard=guard,
                 budget=Budget(stop=lambda: polls.append(None)))
            buf = CnfBuffer(sink.num_vars)
            with pytest.raises(EncodingInterrupted):
                real(items, max_bound, buf, plan=plan, guard=guard,
                     budget=Budget(stop=stop_at(len(polls))))
            expected.append(search.EncoderBuild(
                len(items), len(buf.clauses), buf.num_vars - sink.num_vars))
            armed.append(stop_at(len(polls)))
        return real(items, max_bound, sink, plan=plan, guard=guard, **kw)

    monkeypatch.setattr(search, "plan_gte", plan_gte)
    monkeypatch.setattr(search, "GeneralizedTotalizer", gte)
    report = search.solve(f, weight_cfg(0, stop=lambda: bool(armed) and armed[0]()))
    assert report.status == SATISFIABLE and not report.exact
    assert wcnf.check_model(f, report.best.assignment) == ("valid", report.cost)
    if phase == "sizing":
        assert report.warm is None
        assert report.encoders == [search.EncoderBuild(4, 0, 0)]
    else:
        assert report.warm == (1, 1, 1)
        assert report.encoders == expected and expected[0].clauses > 0


def test_forced_floored_stage_matches_oracle(monkeypatch):
    # weights times 1, 7 or 31, so flooring drops some inputs
    monkeypatch.setattr(search, "WARM_CHARGE", 0)
    rng = seeded_rng(1818)
    staged = 0
    for trial in range(40):
        f = harness.random_wcnf(rng)
        f = wcnf.WcnfFormula(f.num_vars, f.hard,
                             [(c, w * rng.choice((1, 7, 31))) for c, w in f.soft])
        opt = harness.brute_force_optimum(f)[0]
        report = search.solve(f, weight_cfg(0, seed=trial))
        if report.exact:
            assert report.cost == opt
        else:  # the exact build is over the cap
            assert report.fallbacks and report.warm is None
        if report.warm is not None:
            k, first, last = report.warm
            assert k >= 1 and first >= last >= 0
            staged += first > 0  # a floored encoding was built and searched
        # a budget that runs out in any phase ends with a valid model, and
        # claims no optimum
        cut = search.solve(f, weight_cfg(0, seed=trial, max_conflicts=trial % 5))
        if cut.best is not None:
            assert wcnf.check_model(f, cut.best.assignment) == ("valid", cut.cost)
        assert not cut.exact or cut.cost == opt
    assert staged >= 25


# ----------------------------------------------------------------------
# pinned search path

PAPER_CONFIGS = ([weight_cfg(m) for m in (0, 1, 2, 3, "weights")]
                 + [subprob_cfg(m) for m in (1, 2, 3, "weights")])


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def decisions_digest(reports):
    """A digest of what a search decides in some reports: status, bounds,
    exact, clusters, fallbacks, and the final cost of an exact report,
    which any optimum shares."""
    return digest([(r.status, r.bounds, r.exact, r.clusters, r.fallbacks,
                    r.cost if r.exact else None) for r in reports])


def path_digest(reports):
    """A digest of the way a search went in some reports: solver stats, the
    best assignment, and the trace costs that the decisions digest leaves
    out (all of them on a report that is not exact, where the model found
    depends on the path, and all but the last on an exact one)."""
    return digest([(sorted(r.solver_stats.items()),
                    r.best and sorted(r.best.assignment.items()),
                    [c for _, c in r.trace][:-1 if r.exact else None])
                   for r in reports])


def test_search_reports_are_pinned(monkeypatch):
    def run(formulas):
        reports = [search.solve(f, replace(cfg, max_conflicts=2000, seed=i))
                   for i, f in enumerate(formulas) for cfg in PAPER_CONFIGS]
        return (len(reports), sum(len(r.fallbacks) for r in reports),
                decisions_digest(reports),
                sum(r.solver_stats["conflicts"] for r in reports), path_digest(reports))

    rng = seeded_rng(6060)
    got = {"random": run([harness.random_wcnf(rng) for _ in range(6)]),
           "fidelity": run([harness.fidelity_family(seeded_rng(20250810))]),
           "three-tier": run([three_tier(seeded_rng(60), n=30)]),
           "planted": run([harness.planted_family(seeded_rng(400))])}
    monkeypatch.setattr(encodings, "MAX_GTE_CLAUSES", 60)
    rng = seeded_rng(8080)
    got["capped"] = run([harness.random_wcnf(rng) for _ in range(6)])
    # what the search decides is pinned apart from the way it went (solver
    # stats, models and the costs they reach short of a proven optimum): a
    # change to the clauses the encoder emits moves the path, not a decision
    decisions = {k: v[:3] for k, v in got.items()}
    paths = {k: v[3:] for k, v in got.items()}
    # (reports, fallbacks, decisions digest)
    assert decisions == {
        "random": (54, 0, "12c7213e2f7cc745"),
        "fidelity": (9, 0, "5cd3972dd2043f19"),
        "three-tier": (9, 0, "0df83cc04636ced0"),
        "capped": (54, 30, "8a01fbdf75bbb06b"),
        "planted": (9, 0, "dfbf6b95d203e818"),
    }
    # (conflicts, path digest)
    assert paths == {
        "random": (12, "a85b4872ecdf768c"),
        "fidelity": (212, "154a29fb0f6b3353"),
        "three-tier": (381, "5f2c261b0b5a6fed"),
        "capped": (2, "cb16de970d7fc2e9"),
        "planted": (192, "70bbc98f4bad2461"),
    }


# ----------------------------------------------------------------------
# soft units as objective literals

def shared_unit_formula(rng):
    """A small formula whose soft units share variables: duplicate units
    (x)(x), complementary units (y)(-y) and (-z)(z), a unit on a variable a
    hard unit fixes, negative-literal units and non-unit soft clauses, in a
    shuffled soft order, over random hard 3-clauses."""
    n = rng.randint(6, 10)
    x, y, z, fixed, *rest = rng.sample(range(1, n + 1), n)
    sign = rng.choice((1, -1))

    def weight():
        return rng.choice((1, 2, 3, 5, 8, 13))

    def signed(v):
        return v if rng.random() < 0.5 else -v

    hard = [wcnf.Clause.of([signed(v) for v in rng.sample(range(1, n + 1), 3)])
            for _ in range(n)]
    hard.append(wcnf.Clause.of([sign * fixed]))
    units = [[x], [x], [y], [-y], [-z], [z], [rng.choice((1, -1)) * fixed]]
    units += [[-v] for v in rng.sample(rest, 2)]
    wide = [[signed(v) for v in rng.sample(range(1, n + 1), rng.randint(2, 3))]
            for _ in range(4)] + [[x, signed(y)]]
    soft = [(wcnf.Clause.of(lits), weight()) for lits in units + wide]
    rng.shuffle(soft)
    return wcnf.WcnfFormula(n, hard, soft)


def test_shared_variable_soft_units_keep_every_answer_right():
    exact = 0
    for trial in range(12):
        f = shared_unit_formula(seeded_rng(2700 + trial))
        lits = wcnf.relax(f)
        assert any(r > f.num_vars and len(c.lits) == 1 for (c, _), r in zip(f.soft, lits))
        oracle = harness.brute_force_optimum(f)
        for cfg in PAPER_CONFIGS:
            report = search.solve(f, replace(cfg, seed=trial))
            if oracle is None:
                assert report.status == UNSATISFIABLE and report.best is None
                continue
            assert report.status in (OPTIMUM_FOR_APPROXIMATION, SATISFIABLE)
            assert wcnf.check_model(f, report.best.assignment) == ("valid", report.cost)
            assert report.cost >= oracle[0]
            if report.exact:
                exact += 1
                assert report.cost == oracle[0]
    assert exact == 24  # apx-weight m=0 and m=weights on every trial


def test_all_unit_formula_loads_no_relaxation_variable_or_clause(monkeypatch):
    rng = seeded_rng(2727)
    n = 12
    hard = [wcnf.Clause.of([v if rng.random() < 0.5 else -v
                            for v in rng.sample(range(1, n + 1), 3)]) for _ in range(20)]
    soft = [(wcnf.Clause.of([v if rng.random() < 0.5 else -v]), rng.randint(1, 9))
            for v in range(1, n + 1)]
    f = wcnf.WcnfFormula(n, hard, soft)
    loaded = []

    class Recording(search.SatSolver):
        def solve(self, *args, **kw):
            if not loaded:  # the first call runs on the loaded formula alone
                loaded.append((self.num_vars, self.clauses_added))
            return super().solve(*args, **kw)

    monkeypatch.setattr(search, "SatSolver", Recording)
    report = search.solve(f, weight_cfg(0))
    assert loaded == [(f.num_vars, len(f.hard))]
    assert report.exact and report.cost == harness.brute_force_optimum(f)[0]
