import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from apxmaxsat import wcnf

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, env=None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **(env or {})}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300, env=env)


@pytest.mark.parametrize("family", ["random", "bmo", "fidelity", "planted"])
def test_gen_instances_writes_parseable_files(tmp_path, family):
    out = tmp_path / "suite"
    r = run_script("gen_instances.py", str(out), "--family", family, "--count", "2")
    assert r.returncode == 0, r.stderr
    written = sorted(out.glob("*.wcnf"))
    assert [p.name for p in written] == [f"{family}_0000_000.wcnf",
                                         f"{family}_0000_001.wcnf"]
    assert r.stdout.split() == [str(p) for p in written]
    for p in written:
        assert wcnf.parse_wcnf(p.read_text()).soft


def test_fidelity_trend_prints_table_and_cleans_up(tmp_path):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    report = tmp_path / "report.json"
    r = run_script("fidelity_trend.py", "--instances", "2", "--conflicts", "200",
                   "--weight-grid", "0,1", "--subprob-grid", "1",
                   "--report", str(report), env={"TMPDIR": str(scratch)})
    assert r.returncode == 0, r.stderr
    header, *rows = r.stdout.splitlines()
    assert header.split() == ["config", "avg-score", "solved", "best"]
    assert [row.split()[0] for row in rows] == [
        "apx-weight/m=0", "apx-weight/m=1", "apx-subprob/m=1"]
    assert report.is_file()
    assert list(scratch.iterdir()) == []  # the instance directory is removed


@pytest.mark.parametrize("flag, value", [("--timeout", "nan"), ("--conflicts", "-1"),
                                         ("--instances", "0"), ("--instances", "-2")])
def test_fidelity_trend_rejects_bad_budget_before_writing(tmp_path, flag, value):
    keep = tmp_path / "instances"
    r = run_script("fidelity_trend.py", "--instances", "2", "--keep", str(keep),
                   flag, value)
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert "error:" in r.stderr and r.stdout == ""
    assert not keep.exists()


def test_fidelity_trend_refuses_a_keep_dir_holding_instances(tmp_path):
    keep = tmp_path / "kept"
    sweep = ["--keep", str(keep), "--conflicts", "50", "--weight-grid", "1",
             "--subprob-grid", "1"]
    first = run_script("fidelity_trend.py", "--instances", "3", *sweep)
    assert first.returncode == 0, first.stderr
    kept = {p.name: p.read_text() for p in keep.iterdir()}
    assert len(kept) == 3
    # a second sweep would score the first one's instances as its own
    again = run_script("fidelity_trend.py", "--instances", "1", *sweep)
    assert again.returncode == 2 and "Traceback" not in again.stderr
    assert "already holds" in again.stderr and again.stdout == ""
    assert {p.name: p.read_text() for p in keep.iterdir()} == kept


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"),
                                                  ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_snapshot_runs_every_benchmark_workload(tmp_path):
    snap = load_script("bench_snapshot.py")
    args = snap.parse_args([str(tmp_path / "bench.json")])
    assert (args.root, args.label) == (ROOT, "snapshot")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert snap.commands(bench) == {
        w["name"]: [sys.executable, "perfbench/run.py", "--workload", w["name"],
                    "--seed", "1", "--seconds", str(bench["run_seconds"])]
        for w in bench["workloads"]}


@pytest.mark.parametrize("argv", [
    ["--root", "{tmp}"], ["{tmp}/missing/bench.json"],
    ["{tmp}/not-a-snapshot.json"],
    ["--root", "{tmp}/uncommitted"],  # has the benchmark's files, but no git
])
def test_bench_snapshot_rejects_bad_arguments_before_running(tmp_path, argv):
    (tmp_path / "not-a-snapshot.json").write_text("[1, 2]")
    uncommitted = tmp_path / "uncommitted"
    (uncommitted / "perfbench").mkdir(parents=True)
    (uncommitted / "perfbench" / "run.py").write_text("")
    (uncommitted / "BENCHMARK.json").write_text("{}")
    argv = [a.format(tmp=tmp_path) for a in argv]
    if not argv[0].endswith(".json"):
        argv.insert(0, str(tmp_path / "bench.json"))
    r = run_script("bench_snapshot.py", *argv)
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert "error:" in r.stderr and r.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["not-a-snapshot.json",
                                                          "uncommitted"]
    assert (tmp_path / "not-a-snapshot.json").read_text() == "[1, 2]"


@pytest.mark.parametrize("code", ["pass", "print('done')"])
def test_bench_snapshot_refuses_a_run_without_a_result_line(tmp_path, code):
    root = tmp_path / "checkout"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "-c", code], "run_seconds": 1,
        "workloads": [{"name": "quiet"}]}))
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    subprocess.run(git[:3] + ["add", "."], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "bench"], check=True)
    out = tmp_path / "bench.json"
    r = run_script("bench_snapshot.py", str(out), "--root", str(root))
    assert r.returncode == 1 and "Traceback" not in r.stderr
    assert "error: workload quiet printed no result line" in r.stderr
    assert not out.exists()


def test_search_diff_finds_no_difference_against_the_same_checkout(tmp_path):
    (tmp_path / "e1.wcnf").write_text("p wcnf 2 3 10\n10 1 2 0\n3 -1 0\n2 -2 0\n")
    r = run_script("search_diff.py", "--root", str(ROOT), "--seeds", "1",
                   "--dir", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "4 instances, 36 reports: 0 differ",
        "status=0 bounds=0 exact=0 clusters=0 fallbacks=0 cost=0 trace_costs=0"
        " solver_stats=0 encoders=0 warm=0"]
    assert r.stderr == ""


def test_search_diff_answers_ignores_the_search_path(tmp_path):
    # a checkout whose reports differ from this one's in solver stats alone
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src")
    search_py = other / "src" / "apxmaxsat" / "search.py"
    text = search_py.read_text()
    assert text.count("report.solver_stats = dict(solver.stats)") == 1
    search_py.write_text(text.replace("report.solver_stats = dict(solver.stats)",
                                      "report.solver_stats = dict(solver.stats, moved=1)"))
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "e1.wcnf").write_text("p wcnf 2 3 10\n10 1 2 0\n3 -1 0\n2 -2 0\n")
    argv = ["--root", str(other), "--seeds", "0", "--dir", str(suite)]
    r = run_script("search_diff.py", *argv)
    assert r.returncode == 1
    assert r.stdout.splitlines()[0] == "1 instances, 9 reports: 9 differ"
    assert r.stdout.splitlines()[1].endswith(
        " trace_costs=0 solver_stats=9 encoders=0 warm=0")
    r = run_script("search_diff.py", *argv, "--answers")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "1 instances, 9 reports: 0 differ",
        "status=0 bounds=0 exact=0 clusters=0 fallbacks=0 cost=0"]


@pytest.mark.parametrize("argv", [["--root", "{tmp}"], ["--root", "{root}", "--seeds", "-1"],
                                  ["--root", "{root}", "--dir", "{tmp}/missing"]])
def test_search_diff_rejects_bad_arguments_before_running(tmp_path, argv):
    r = run_script("search_diff.py", *[a.format(tmp=tmp_path, root=ROOT) for a in argv])
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert "error:" in r.stderr and r.stdout == ""
