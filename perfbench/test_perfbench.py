"""Tests of the solve benchmark's own code: generators, checks, tracer."""

import random
from pathlib import Path

import pytest

import run
import workloads
from apxmaxsat import cli, harness, search
from apxmaxsat.satcore import SatSolver
from child import status_kb
from tracer import Tracer, summarize
from workloads import OVERRUN, Instance, Task, check_cli, check_report


@pytest.mark.parametrize("seed", range(12))
def test_planted_optimum_matches_oracle(seed):
    rng = random.Random(seed)
    f, optimum = workloads.planted_instance(rng, num_vars=10, units=4, pairs=4)
    assert f.num_vars <= 24
    assert harness.brute_force_optimum(f)[0] == optimum


@pytest.mark.parametrize("seed", range(6))
def test_fidelity_optimum_matches_oracle(seed):
    f, optimum = workloads.fidelity_instance(random.Random(seed), pairs=5, decoys=10)
    assert harness.brute_force_optimum(f)[0] == optimum


@pytest.mark.parametrize("n", range(2, 25, 3))
def test_wide_optimum_matches_oracle(n):
    f, optimum = workloads.wide_instance(random.Random(n), n)
    assert harness.brute_force_optimum(f)[0] == optimum


def _small_instance():
    f, optimum = workloads.wide_instance(random.Random(7), 9)
    return workloads._instance("w9", f, optimum)


def _solve(inst: Instance, task: Task):
    cfg = search.SearchConfig(algorithm=task.algorithm, clusters=task.clusters)
    return search.solve(inst.formula, cfg)


def _failed_share(solves):
    rows = {name: value for name, value, _, _ in run.report_only_rows(solves, None)}
    return rows["failed_share"]


def test_tampered_model_counts_as_failure():
    inst = _small_instance()
    task = Task(0, search.APX_WEIGHT, 0)
    report = _solve(inst, task)
    assert check_report(inst, task, report) == []
    report.best.assignment[1] = not report.best.assignment[1]
    reasons = check_report(inst, task, report)
    assert reasons and OVERRUN not in reasons
    good = run.Solve(task, inst.optimum, True, 0.1, 0.05, True, inst.optimum, [])
    bad = run.Solve(task, inst.optimum, True, 0.1, 0.05, True, report.best.true_cost,
                    reasons)
    assert _failed_share([good, good, good, bad]) == 0.25


def test_exact_run_above_optimum_counts_as_failure():
    inst = _small_instance()
    task = Task(0, search.APX_WEIGHT, 0)
    report = _solve(inst, task)
    inst.optimum -= 1
    assert "exact_not_optimal" in check_report(inst, task, report)


def _cli_output(inst: Instance, task: Task, tmp_path, capsys):
    path = tmp_path / "inst.wcnf"
    path.write_text(inst.text)
    code = cli.main(["solve", str(path), "--algorithm", task.algorithm,
                     "--clusters", str(task.clusters), "--timeout", "5"])
    return capsys.readouterr().out, code


def test_cli_overrun_and_tampered_v_line_count_as_failures(tmp_path, capsys):
    inst = _small_instance()
    task = Task(0, search.APX_WEIGHT, 0)
    out, code = _cli_output(inst, task, tmp_path, capsys)
    assert code == 30
    assert check_cli(inst, task, out, code, 0.3, 2.0)[0] == []
    late, _ = check_cli(inst, task, out, code, 2.0 + workloads.WIDE_SLACK_S + 0.01, 2.0)
    assert late == [OVERRUN]
    v_line = next(l for l in out.splitlines() if l.startswith("v "))
    flipped = v_line.replace(" -1 ", " 1 ") if " -1 " in v_line else v_line.replace(" 1 ", " -1 ")
    tampered, _ = check_cli(inst, task, out.replace(v_line, flipped), code, 0.3, 2.0)
    assert tampered and OVERRUN not in tampered
    assert check_cli(inst, task, out, 10, 0.3, 2.0)[0] == ["s_line"]
    solves = [run.Solve(task, inst.optimum, True, 0.3, 0.1, True, inst.optimum, []),
              run.Solve(task, inst.optimum, True, 2.6, 0.1, True, inst.optimum, late)]
    assert _failed_share(solves) == 0.5
    result = run.result_line(solves, [])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    tampered_solve = run.Solve(task, inst.optimum, True, 0.3, 0.1, True, inst.optimum, tampered)
    result = run.result_line(solves + [tampered_solve], [])
    assert (result["correct"], result["failed"]) == (False, 1)


def test_tracer_counts_layers_and_restores_originals():
    inst = _small_instance()
    original = SatSolver.add_clause
    tracer = Tracer()
    with tracer.installed():
        assert SatSolver.add_clause is not original
        with tracer.solve(0, "bench.solve"):
            _solve(inst, Task(0, search.APX_WEIGHT, 0))
        _solve(inst, Task(0, search.APX_WEIGHT, 0))  # outside a solve: not traced
    assert SatSolver.add_clause is original
    stats = summarize(tracer.spans, {0}, {0}, passes=1)
    assert stats["encodings.gte_builds"] == 1
    assert stats["encodings.gte_clauses"] > 0 and stats["encodings.gte_vars"] > 0
    assert stats["satcore.solvers_built"] == 1
    assert stats["satcore.solve_calls"] >= 2
    assert stats["search.improvements"] >= 1
    assert 0.9 < sum(v for k, v in stats.items() if k.startswith("share.")) <= 1.0 + 1e-9


def test_cli_child_reports_its_own_peak_rss(tmp_path):
    inst = _small_instance()
    (tmp_path / f"{inst.name}.wcnf").write_text(inst.text)
    batch = workloads.Batch([inst], [Task(0, search.APX_WEIGHT, 0)], timeout_s=5.0, cli=True)
    # Raise this process's peak well above a child's: a peak inherited
    # through exec would then show.
    ballast = b"\1" * (128 << 20)
    del ballast
    env = run.child_env(Path(cli.__file__).resolve().parents[1])
    solve = run.solve_cli(batch, batch.tasks[0], None, 0, tmp_path, env)
    assert solve.reasons == []
    assert 0 < solve.rss_mb < status_kb("VmHWM") / 1024 - 64
