import json
from dataclasses import asdict, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from apxmaxsat import encodings, harness, search, wcnf
from apxmaxsat.harness import (brute_force_optimum, load_best_known,
                               run_benchmarks, score, write_report)
from apxmaxsat.search import SearchConfig

from conftest import E1_TEXT, HARD_UNSAT_TEXT, all_assignments, \
    formula_strategy, seeded_rng


# ----------------------------------------------------------------------
# brute-force oracle

def test_oracle_e1(e1):
    cost, model = brute_force_optimum(e1)
    assert cost == 2
    assert model == {1: False, 2: True}


def test_oracle_unsat_hard(hard_unsat):
    assert brute_force_optimum(hard_unsat) is None


def test_oracle_no_soft():
    f = wcnf.parse_wcnf("p wcnf 2 1 5\n5 1 2 0\n")
    assert brute_force_optimum(f)[0] == 0


def test_oracle_variable_guard():
    f = wcnf.WcnfFormula(25, [], [(wcnf.Clause.of([1]), 1)])
    with pytest.raises(ValueError):
        brute_force_optimum(f)


def test_oracle_weight_override(e1):
    cost, _ = brute_force_optimum(e1, weights=[1, 50])
    assert cost == 1  # now sacrificing the first soft clause is cheapest


def test_oracle_huge_weights_exact(e1):
    w = 2 ** 70
    cost, _ = brute_force_optimum(e1, weights=[3 * w, 2 * w])
    assert cost == 2 * w


@given(formula_strategy(max_vars=5, max_clauses=7))
@settings(max_examples=60)
def test_oracle_agrees_with_direct_enumeration(f):
    expected = None
    for a in all_assignments(f.num_vars):
        if all(c.satisfied_by(a) for c in f.hard):
            c = wcnf.cost(f, a)
            if expected is None or c < expected:
                expected = c
    got = brute_force_optimum(f)
    if expected is None:
        assert got is None
    else:
        assert got[0] == expected
        verdict, model_cost = wcnf.check_model(f, got[1])
        assert verdict == "valid" and model_cost == expected


# ----------------------------------------------------------------------
# scoring

def test_score_examples():
    assert score(10, 20) == Fraction(1, 2)
    assert score(10, 10) == Fraction(1)
    assert score(10, None) == 0
    assert score(0, 0) == 1
    assert score(0, 7) == 0


def test_score_errors():
    with pytest.raises(ValueError):
        score(10, 9)
    with pytest.raises(ValueError):
        score(-1, 3)


# ----------------------------------------------------------------------
# benchmark runner

def write_suite(tmp_path, texts):
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return tmp_path


SECOND_TEXT = "p wcnf 3 4 9\n9 1 2 0\n9 -1 3 0\n4 -2 0\n1 -3 0\n"


def both_configs(**kw):
    return [SearchConfig(algorithm=search.APX_SUBPROB, clusters="weights", **kw),
            SearchConfig(algorithm=search.APX_WEIGHT, clusters=0, **kw)]


def test_run_benchmarks_basic(tmp_path):
    d = write_suite(tmp_path, {"a.wcnf": E1_TEXT, "b.wcnf": SECOND_TEXT})
    table = run_benchmarks(d, both_configs(), max_conflicts=100000)
    exact = "apx-weight/m=0"
    assert table.averages[exact] == 1
    for path in table.instances:
        assert table.best_known[path] == brute_force_optimum(
            wcnf.parse_wcnf(open(path).read()))[0]
        for label in table.configs:
            rec = table.records[path][label]
            assert rec.cost is not None
            assert rec.cost >= table.best_known[path]
            assert table.scores[path][label] <= 1


def test_run_benchmarks_refuses_a_suite_without_instances(tmp_path):
    with pytest.raises(ValueError, match=f"no \\*.wcnf instances in {tmp_path}"):
        run_benchmarks(tmp_path, both_configs())


def test_run_benchmarks_unsolved_instance_scores_zero(tmp_path):
    d = write_suite(tmp_path, {
        "a.wcnf": E1_TEXT, "b.wcnf": SECOND_TEXT,
        "c.wcnf": E1_TEXT, "dead.wcnf": HARD_UNSAT_TEXT})
    table = run_benchmarks(d, both_configs(), max_conflicts=100000)
    # no configuration solves the contradictory instance: 3 of 4 score 1
    assert table.averages["apx-weight/m=0"] == Fraction(3, 4)
    dead = str(d / "dead.wcnf")
    assert table.best_known[dead] is None
    assert all(table.scores[dead][label] == 0 for label in table.configs)


def test_run_benchmarks_keeps_every_config_field(tmp_path):
    # every field of a configuration, its stop flag included, reaches the search
    d = write_suite(tmp_path, {"a.wcnf": E1_TEXT})
    stopped = SearchConfig(algorithm=search.APX_WEIGHT, clusters=0,
                           stop=lambda: True)
    rec = run_benchmarks(d, [stopped]).records[str(d / "a.wcnf")]["apx-weight/m=0"]
    assert (rec.status, rec.cost) == (search.UNKNOWN, None)


GREEDY_TRAP_TEXT = "p wcnf 2 4 9\n9 1 2 0\n5 -1 0\n3 -2 0\n3 -2 0\n"


def test_run_benchmarks_virtual_best_definition(tmp_path):
    # one instance where greedy per-cluster lands on cost 6 while the exact
    # search finds 5: virtual best is 5, scores 1.0 and 5/6
    (tmp_path / "trap.wcnf").write_text(GREEDY_TRAP_TEXT)
    configs = [SearchConfig(algorithm=search.APX_WEIGHT, clusters=0),
               SearchConfig(algorithm=search.APX_SUBPROB, clusters=2)]
    table = run_benchmarks(tmp_path, configs, max_conflicts=100000)
    path = str(tmp_path / "trap.wcnf")
    assert table.records[path]["apx-weight/m=0"].cost == 5
    assert table.records[path]["apx-subprob/m=2"].cost == 6
    assert table.best_known[path] == 5
    assert table.scores[path]["apx-weight/m=0"] == 1
    assert table.scores[path]["apx-subprob/m=2"] == Fraction(5, 6)


def test_run_benchmarks_parse_failure_recorded(tmp_path):
    d = write_suite(tmp_path, {"good.wcnf": E1_TEXT, "bad.wcnf": "p wcnf zz\n"})
    table = run_benchmarks(d, both_configs(), max_conflicts=10000)
    bad = str(d / "bad.wcnf")
    for label in table.configs:
        assert table.records[bad][label].cost is None
        assert "parse_error" in table.records[bad][label].status
        assert table.scores[bad][label] == 0
    good = str(d / "good.wcnf")
    assert table.best_known[good] == 2


def test_run_benchmarks_sidecar_merges_external_costs(tmp_path):
    d = write_suite(tmp_path, {"a.wcnf": E1_TEXT})
    side = tmp_path / "best.txt"
    side.write_text("# known costs\na.wcnf 1\n")
    table = run_benchmarks(d, both_configs(), max_conflicts=100000, sidecar=side)
    a = str(d / "a.wcnf")
    assert table.best_known[a] == 1
    assert table.scores[a]["apx-weight/m=0"] == Fraction(1, 2)
    assert load_best_known(side) == {"a.wcnf": 1}


def test_run_benchmarks_deterministic_with_conflict_budget(tmp_path):
    d = write_suite(tmp_path, {"a.wcnf": E1_TEXT, "b.wcnf": SECOND_TEXT})
    t1 = run_benchmarks(d, both_configs(seed=3), max_conflicts=200)
    t2 = run_benchmarks(d, both_configs(seed=3), max_conflicts=200)
    for path in t1.instances:
        for label in t1.configs:
            assert t1.records[path][label].cost == t2.records[path][label].cost
            assert t1.records[path][label].status == t2.records[path][label].status
    assert t1.scores == t2.scores and t1.averages == t2.averages


def test_adding_config_never_raises_existing_scores(tmp_path):
    rng = seeded_rng(88)
    for i in range(3):
        f = harness.random_wcnf(rng, max_vars=10, max_clauses=18)
        (tmp_path / f"r{i}.wcnf").write_text(wcnf.serialize_wcnf(f))
    subset = [SearchConfig(algorithm=search.APX_SUBPROB, clusters=1)]
    full = subset + [SearchConfig(algorithm=search.APX_WEIGHT, clusters=0)]
    t_small = run_benchmarks(tmp_path, subset, max_conflicts=50000)
    t_full = run_benchmarks(tmp_path, full, max_conflicts=50000)
    label = "apx-subprob/m=1"
    for path in t_small.instances:
        small_best = t_small.best_known[path]
        full_best = t_full.best_known[path]
        if small_best is not None:
            assert full_best is not None and full_best <= small_best
        assert t_full.scores[path][label] <= t_small.scores[path][label]
    assert t_full.averages[label] <= t_small.averages[label]


def untimed_rows(table):
    """Every report row of a table's JSON, without its times."""
    rows = {}
    for path, rec in table.to_json_dict()["instances"].items():
        for label, row in rec["results"].items():
            del row["elapsed"]
            row["trace"] = [c for _, c in row["trace"]]
            rows[path, label] = row
    return rows


def test_run_benchmarks_parallel_matches_serial(tmp_path):
    d = write_suite(tmp_path, {"a.wcnf": E1_TEXT, "b.wcnf": SECOND_TEXT,
                               "bad.wcnf": "p wcnf zz\n"})
    t1 = run_benchmarks(d, both_configs(), max_conflicts=10000, workers=1)
    t2 = run_benchmarks(d, both_configs(), max_conflicts=10000, workers=2)
    assert t1.scores == t2.scores
    assert untimed_rows(t1) == untimed_rows(t2)
    for table in (t1, t2):  # no row holds a model
        assert all(r.best is None for recs in table.records.values()
                   for r in recs.values())


def test_report_json_and_table(tmp_path):
    d = write_suite(tmp_path, {"a.wcnf": E1_TEXT})
    table = run_benchmarks(d, both_configs(), max_conflicts=10000)
    out = tmp_path / "report.json"
    write_report(table, out)
    data = json.loads(out.read_text())
    a = str(d / "a.wcnf")
    assert data["instances"][a]["best_known"] == 2
    rec = data["instances"][a]["results"]["apx-weight/m=0"]
    assert rec["cost"] == 2 and rec["score"] == "1.0000"
    assert rec["trace"][-1][1] == 2
    assert data["averages"]["apx-weight/m=0"]["score_exact"] == [1, 1]
    assert (rec["exact"], rec["clusters"], rec["fallbacks"]) == (True, 0, [])
    assert set(rec["solver_stats"]) == {"conflicts", "decisions", "propagations",
                                        "restarts", "reductions"}
    assert rec["solver_stats"]["propagations"] > 0
    # one exact build over e1's two soft clauses
    assert [(e["inputs"], e["refused"]) for e in rec["encoders"]] == [(2, False)]
    text = table.table_text()
    assert "avg-score" in text and "apx-subprob/m=weights" in text


def test_report_carries_the_floored_stage(tmp_path, monkeypatch):
    # weights 9 and 8 floor by k=1 to 4 and 4, and one unit is always paid
    monkeypatch.setattr(search, "WARM_CHARGE", 0)
    d = write_suite(tmp_path, {"w.wcnf": "p wcnf 2 3 40\n40 1 2 0\n9 -1 0\n8 -2 0\n"})
    out = tmp_path / "report.json"
    write_report(run_benchmarks(d, both_configs(), max_conflicts=10000), out)
    results = json.loads(out.read_text())["instances"][str(d / "w.wcnf")]["results"]
    staged = results["apx-weight/m=0"]
    assert staged["warm"] == [1, 4, 4] and staged["exact"] and staged["cost"] == 8
    assert [e["inputs"] for e in staged["encoders"]] == [2, 2]
    assert results["apx-subprob/m=weights"]["warm"] is None


def test_report_says_which_runs_fell_back_to_coarser_clusters(tmp_path, monkeypatch):
    # a row that fell back must not read like one searched at its configured m
    monkeypatch.setattr(encodings, "MAX_GTE_CLAUSES", 60)
    rng = seeded_rng(8080)
    formulas = {f"r{i}.wcnf": harness.random_wcnf(rng, max_vars=10, max_clauses=16)
                for i in range(6)}
    d = write_suite(tmp_path, {name: wcnf.serialize_wcnf(f)
                               for name, f in formulas.items()})
    configs = both_configs()
    write_report(run_benchmarks(d, configs, max_conflicts=100000), tmp_path / "r.json")
    data = json.loads((tmp_path / "r.json").read_text())["instances"]
    fell_back = 0
    for name, f in formulas.items():
        for cfg in configs:
            rec = data[str(d / name)]["results"][harness.config_label(cfg)]
            report = search.solve(f, replace(cfg, max_conflicts=100000))
            # the row is the report without its model, times aside
            want = json.loads(json.dumps(asdict(replace(report, best=None))))
            del want["best"], want["elapsed"]
            trace = want.pop("trace")
            assert set(rec) == set(want) | {"cost", "elapsed", "trace", "score",
                                            "score_exact"}
            assert {k: rec[k] for k in want} == want
            assert [c for _, c in rec["trace"]] == [c for _, c in trace]
            assert rec["cost"] == report.best.true_cost
            if rec["fallbacks"]:
                fell_back += 1
                assert rec["status"] == search.SATISFIABLE and not rec["exact"]
                assert rec["clusters"] == rec["fallbacks"][-1][1] < len(set(f.soft_weights))
    assert 0 < fell_back < len(formulas) * len(configs)


def test_random_wcnf_family_properties():
    rng = seeded_rng(5)
    for _ in range(10):
        f = harness.random_wcnf(rng)
        assert f.num_vars <= 16 and len(f.hard) + len(f.soft) <= 30
        assert len(f.soft) >= 1
        assert all(1 <= w <= 20 for w in f.soft_weights)
        assert brute_force_optimum(f) is not None
