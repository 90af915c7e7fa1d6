import json
import os
import signal
import subprocess
import sys
import time

import pytest

from apxmaxsat import cli, harness, search, wcnf

from conftest import E1_TEXT, HARD_UNSAT_TEXT, clause_sat, seeded_rng


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "apxmaxsat", *args],
                          capture_output=True, text=True, timeout=120, **kw)


@pytest.fixture
def e1_path(tmp_path):
    p = tmp_path / "E1.wcnf"
    p.write_text(E1_TEXT)
    return str(p)


def o_values(stdout):
    return [int(line.split()[1]) for line in stdout.splitlines()
            if line.startswith("o ")]


def s_lines(stdout):
    return [line for line in stdout.splitlines() if line.startswith("s ")]


def v_lines(stdout):
    return [line for line in stdout.splitlines() if line.startswith("v ")]


# ----------------------------------------------------------------------
# wire protocol

def test_solve_apx_subprob_wire_protocol(e1_path):
    r = run_cli("solve", e1_path, "--algorithm", "apx-subprob",
                "--clusters", "weights", "--timeout", "10")
    assert r.returncode == 10
    os_ = o_values(r.stdout)
    assert os_ == sorted(os_, reverse=True) and len(set(os_)) == len(os_)
    assert os_[-1] == 2
    assert "o 2" in r.stdout.splitlines()
    assert s_lines(r.stdout) == ["s SATISFIABLE"]
    assert v_lines(r.stdout) == ["v -1 2"]


def test_solve_unsat_wire_protocol(tmp_path):
    p = tmp_path / "hardunsat.wcnf"
    p.write_text(HARD_UNSAT_TEXT)
    r = run_cli("solve", str(p))
    assert r.returncode == 20
    assert s_lines(r.stdout) == ["s UNSATISFIABLE"]
    assert o_values(r.stdout) == [] and v_lines(r.stdout) == []


def test_solve_exact_mode_claims_optimum(e1_path):
    # one cluster per distinct weight leaves apx-weight on the true weights too
    for clusters in ("0", "weights"):
        r = run_cli("solve", e1_path, "--algorithm", "apx-weight",
                    "--clusters", clusters)
        assert r.returncode == 30
        assert o_values(r.stdout)[-1] == 2
        assert s_lines(r.stdout) == ["s OPTIMUM FOUND"]
        assert v_lines(r.stdout) == ["v -1 2"]


def test_solve_approximated_run_never_claims_optimum(e1_path):
    r = run_cli("solve", e1_path, "--algorithm", "apx-weight", "--clusters", "1")
    assert r.returncode == 10
    assert s_lines(r.stdout) == ["s SATISFIABLE"]


def test_final_o_matches_v_line_model(e1_path):
    r = run_cli("solve", e1_path)
    f = wcnf.parse_wcnf(E1_TEXT)
    lits = [int(t) for t in v_lines(r.stdout)[0].split()[1:]]
    assignment = {abs(l): l > 0 for l in lits}
    assert set(assignment) == {1, 2}
    verdict, cost = wcnf.check_model(f, assignment)
    assert verdict == "valid"
    assert cost == o_values(r.stdout)[-1]


def test_solve_unknown_without_model(e1_path):
    r = run_cli("solve", e1_path, "--conflicts", "0")
    assert r.returncode == 0
    assert s_lines(r.stdout) == ["s UNKNOWN"]
    assert v_lines(r.stdout) == []


def test_solve_conflict_budget_flag_accepted(e1_path):
    r = run_cli("solve", e1_path, "--conflicts", "100000", "--seed", "3")
    assert r.returncode in (10, 30)


def test_verbose_comments_prefixed(e1_path):
    r = run_cli("solve", e1_path, "--verbosity", "2")
    assert any(line.startswith("c ") for line in r.stdout.splitlines())
    # protocol lines still intact
    assert s_lines(r.stdout) == ["s SATISFIABLE"]


def test_verbose_prints_each_fallback_to_coarser_clusters(tmp_path):
    # 36 units with weights 2^0..2^35, paired by hard clauses; the exact
    # GTE of the first model's cost is over the clause cap
    n = 36
    f = wcnf.WcnfFormula(n, [wcnf.Clause.of([2 * i + 1, 2 * i + 2]) for i in range(n // 2)],
                         [(wcnf.Clause.of([-v]), 1 << (v - 1)) for v in range(1, n + 1)])
    p = tmp_path / "wide.wcnf"
    p.write_text(wcnf.serialize_wcnf(f))
    r = run_cli("solve", str(p), "--algorithm", "apx-weight", "--clusters", "0",
                "--verbosity", "1")
    fallbacks = [line for line in r.stdout.splitlines() if line.startswith("c encoding")]
    assert fallbacks[0] == "c encoding over 262144 clauses at m=36; retrying at m=18"
    assert s_lines(r.stdout) == ["s SATISFIABLE"] and r.returncode == 10
    quiet = run_cli("solve", str(p), "--algorithm", "apx-weight", "--clusters", "0")
    assert quiet.stdout == "\n".join(
        line for line in r.stdout.splitlines() if not line.startswith("c ")) + "\n"


def test_verbose_prints_each_encoder_build(tmp_path, e1_path):
    # the 36 units of the fallback test above: the exact build and the one
    # at m=18 are refused, and the one at m=9 fits; e1's exact GTE over its
    # 2 soft clauses fits
    n = 36
    f = wcnf.WcnfFormula(n, [wcnf.Clause.of([2 * i + 1, 2 * i + 2]) for i in range(n // 2)],
                         [(wcnf.Clause.of([-v]), 1 << (v - 1)) for v in range(1, n + 1)])
    p = tmp_path / "wide.wcnf"
    p.write_text(wcnf.serialize_wcnf(f))
    r = run_cli("solve", str(p), "--algorithm", "apx-weight", "--clusters", "0",
                "--verbosity", "1")
    lines = [line for line in r.stdout.splitlines() if line.startswith("c encod")]
    assert lines[:4] == ["c encoder inputs=36 clauses=0 variables=0 refused=1",
                         "c encoding over 262144 clauses at m=36; retrying at m=18",
                         "c encoder inputs=36 clauses=0 variables=0 refused=1",
                         "c encoding over 262144 clauses at m=18; retrying at m=9"]
    built = [dict(token.split("=") for token in line.split()[2:])
             for line in lines[4:]]
    assert len(built) == 1 and built[0]["inputs"] == "36" and built[0]["refused"] == "0"
    assert int(built[0]["clauses"]) > 0 and int(built[0]["variables"]) > 0
    r = run_cli("solve", e1_path, "--algorithm", "apx-weight", "--clusters", "0",
                "--verbosity", "1")
    assert [line.split()[:3] for line in r.stdout.splitlines()
            if line.startswith("c encoder ")] == [["c", "encoder", "inputs=2"]]
    assert "c encoder" not in run_cli("solve", e1_path).stdout


def test_verbose_prints_the_floored_stage_before_the_encoders(tmp_path, e1_path):
    # a fidelity instance's exact encoding is charged over search.WARM_CHARGE
    f = harness.fidelity_family(seeded_rng(20250810))
    p = tmp_path / "fidelity.wcnf"
    p.write_text(wcnf.serialize_wcnf(f))
    report = search.solve(f, search.SearchConfig(algorithm="apx-weight", clusters=0))
    k, first, last = report.warm
    r = run_cli("solve", str(p), "--algorithm", "apx-weight", "--clusters", "0",
                "--verbosity", "1")
    lines = [line for line in r.stdout.splitlines() if line.startswith(("c warm", "c encoder"))]
    assert lines[0] == f"c warm k={k} first={first} last={last}"
    # the floored build, then the exact one over every soft clause
    assert [line.split()[2] for line in lines[1:]] == [
        f"inputs={e.inputs}" for e in report.encoders] == [
        f"inputs={sum(w >> k > 0 for _, w in f.soft)}", f"inputs={len(f.soft)}"]
    assert s_lines(r.stdout) == ["s OPTIMUM FOUND"]
    r = run_cli("solve", e1_path, "--algorithm", "apx-weight", "--clusters", "0",
                "--verbosity", "1")
    assert "c warm" not in r.stdout  # a small exact encoding is built at once


def test_verbose_prints_the_solver_stats(e1_path):
    r = run_cli("solve", e1_path, "--algorithm", "apx-weight", "--clusters", "0",
                "--verbosity", "1")
    stats = [line.split() for line in r.stdout.splitlines()
             if line.startswith("c solver ")]
    assert len(stats) == 1
    keys = [token.partition("=")[0] for token in stats[0][2:]]
    assert keys == ["conflicts", "decisions", "propagations", "restarts", "reductions"]
    assert all(token.partition("=")[2].isdigit() for token in stats[0][2:])
    assert s_lines(r.stdout) == ["s OPTIMUM FOUND"]
    # no line without verbosity, nor when the budget ran out before a solver was built
    assert "c solver" not in run_cli("solve", e1_path).stdout
    spent = run_cli("solve", e1_path, "--conflicts", "0", "--verbosity", "1")
    assert "c solver" not in spent.stdout and s_lines(spent.stdout) == ["s UNKNOWN"]


def test_verbose_prints_parse_warnings(tmp_path):
    p = tmp_path / "short.wcnf"
    p.write_text("p wcnf 2 5 10\n10 1 2 0\n3 -1 0\n2 -2 0\n")
    r = run_cli("solve", str(p), "--verbosity", "1")
    assert r.returncode == 10
    assert "c warning: header declares 5 clauses, found 3" in r.stdout.splitlines()
    quiet = run_cli("solve", str(p))
    assert quiet.returncode == 10
    assert not any(line.startswith("c") for line in quiet.stdout.splitlines())


def test_every_subcommand_has_a_handler():
    parser = cli.build_parser()
    for argv in (["solve", "x.wcnf"], ["bench", "suite"],
                 ["encode", "card", "--bound", "1"], ["oracle", "x.wcnf"]):
        assert parser.parse_args(argv).run is getattr(cli, f"_cmd_{argv[0]}")


def test_solve_never_loads_the_evaluation_harness(e1_path):
    # a fresh interpreter, so only what the solve path imports is loaded;
    # numpy would come in with harness
    script = (
        "import sys\n"
        "from apxmaxsat import cli\n"
        f"code = cli.main(['solve', {e1_path!r}, '--algorithm', 'apx-weight', "
        "'--clusters', '0'])\n"
        "print('c loaded', *(m for m in ('numpy', 'apxmaxsat.harness') "
        "if m in sys.modules))\n"
        "sys.exit(code)\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 30, r.stderr
    assert r.stdout.splitlines()[-3:] == ["s OPTIMUM FOUND", "v -1 2", "c loaded"]


# ----------------------------------------------------------------------
# error handling

def test_bad_flags_exit_one(e1_path):
    assert run_cli("solve", e1_path, "--algorithm", "nope").returncode == 1
    assert run_cli("solve", e1_path, "--clusters", "-2").returncode == 1
    assert run_cli("frobnicate").returncode == 1
    for flag, value in (("--timeout", "nan"), ("--timeout", "-1"),
                        ("--conflicts", "-5")):
        for cmd in (["solve", e1_path], ["bench", os.path.dirname(e1_path)]):
            r = run_cli(*cmd, flag, value)
            assert r.returncode == 1 and "Traceback" not in r.stderr
            assert f"error: argument {flag}" in r.stderr
    for workers in ("0", "-3"):
        r = run_cli("bench", os.path.dirname(e1_path), "--workers", workers)
        assert r.returncode == 1 and "Traceback" not in r.stderr
        assert f"error: argument --workers: must be >= 1, got '{workers}'" in r.stderr
    assert_clean_error(run_cli("solve", e1_path, "--algorithm", "apx-subprob",
                               "--clusters", "0"))


def test_unreadable_file_exit_one(tmp_path):
    r = run_cli("solve", str(tmp_path / "missing.wcnf"))
    assert r.returncode == 1
    assert "cannot read" in r.stderr


def test_malformed_instance_exit_one(tmp_path):
    p = tmp_path / "bad.wcnf"
    p.write_text("p wcnf 1 1 5\n6 1 0\n")
    r = run_cli("solve", str(p))
    assert r.returncode == 1
    assert "line 2" in r.stderr


def test_instance_not_utf8_exit_one(tmp_path):
    p = tmp_path / "bad.wcnf"
    p.write_bytes(b"p wcnf 1 1 5\n5 1 0 \xff\n")
    for cmd in ("solve", "oracle"):
        r = run_cli(cmd, str(p))
        assert_clean_error(r)
        assert "line 2" in r.stderr


# ----------------------------------------------------------------------
# oracle and encode subcommands

def test_oracle_subcommand(e1_path, tmp_path):
    r = run_cli("oracle", e1_path)
    assert r.returncode == 30
    assert o_values(r.stdout) == [2]
    assert s_lines(r.stdout) == ["s OPTIMUM FOUND"]
    p = tmp_path / "hardunsat.wcnf"
    p.write_text(HARD_UNSAT_TEXT)
    assert run_cli("oracle", str(p)).returncode == 20


def parse_dimacs(text):
    lines = text.splitlines()
    nv, nc = (int(t) for t in lines[0].split()[2:])
    clauses = [tuple(int(t) for t in line.split()[:-1]) for line in lines[1:]]
    assert len(clauses) == nc
    return nv, clauses


def test_encode_card_dump_semantics():
    # a bound at or above --inputs constrains nothing: all 8 patterns extend
    for bound, patterns in ((1, 4), (5, 8)):
        r = run_cli("encode", "card", "--inputs", "3", "--bound", str(bound))
        assert r.returncode == 0
        nv, clauses = parse_dimacs(r.stdout)
        projections = set()
        for bits in range(1 << nv):
            a = {v: bool(bits >> (v - 1) & 1) for v in range(1, nv + 1)}
            if all(clause_sat(c, a) for c in clauses):
                projections.add((a[1], a[2], a[3]))
                assert sum(a[v] for v in (1, 2, 3)) <= bound
        assert len(projections) == patterns  # each allowed input pattern extends


def test_encode_pb_dump_semantics():
    r = run_cli("encode", "pb", "--weights", "2,3", "--bound", "3",
                "--max-bound", "5")
    assert r.returncode == 0
    nv, clauses = parse_dimacs(r.stdout)
    projections = set()
    for bits in range(1 << nv):
        a = {v: bool(bits >> (v - 1) & 1) for v in range(1, nv + 1)}
        if all(clause_sat(c, a) for c in clauses):
            projections.add((a[1], a[2]))
            assert 2 * a[1] + 3 * a[2] <= 3
    assert projections == {(False, False), (True, False), (False, True)}


def test_encode_pb_over_the_cap_exit_one():
    # weights 2^0..2^35 reach every sum below 2^36: far over the clause cap
    weights = ",".join(str(1 << i) for i in range(36))
    r = run_cli("encode", "pb", "--weights", weights, "--bound", "5")
    assert_clean_error(r)
    assert r.stdout == ""
    # past MAX_GTE_CLAUSES inputs the output links alone pass the cap:
    # refused before anything of size N is built
    for n in (cli.MAX_GTE_CLAUSES + 1, 10 ** 12):
        r = run_cli("encode", "card", "--inputs", str(n), "--bound", "5")
        assert_clean_error(r)
        assert f"encoding over {cli.MAX_GTE_CLAUSES} clauses" in r.stderr
        assert r.stdout == ""


def test_encode_bad_args():
    assert run_cli("encode", "card", "--bound", "1").returncode == 1
    assert run_cli("encode", "pb", "--bound", "1").returncode == 1
    assert run_cli("encode", "pb", "--weights", "2,x", "--bound", "1").returncode == 1


def assert_clean_error(r):
    assert r.returncode == 1
    assert any(line.startswith("apxmaxsat:") for line in r.stderr.splitlines())
    assert "Traceback" not in r.stderr


def test_encode_card_negative_bound_exit_one():
    assert_clean_error(run_cli("encode", "card", "--inputs", "3", "--bound", "-1"))


# ----------------------------------------------------------------------
# bench subcommand

def test_bench_subcommand(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a.wcnf").write_text(E1_TEXT)
    rng = seeded_rng(17)
    f = harness.random_wcnf(rng, max_vars=10, max_clauses=16)
    (suite / "b.wcnf").write_text(wcnf.serialize_wcnf(f))
    report = tmp_path / "report.json"
    r = run_cli("bench", str(suite), "--config", "apx-weight:0",
                "--config", "apx-subprob:weights", "--conflicts", "100000",
                "--report", str(report))
    assert r.returncode == 0
    assert "avg-score" in r.stdout and "apx-weight/m=0" in r.stdout
    data = json.loads(report.read_text())
    assert data["averages"]["apx-weight/m=0"]["score"] == "1.0000"
    assert run_cli("bench", str(tmp_path / "nodir")).returncode == 1
    # a suite with no instance is an error, not a table of zero scores
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "a.wcnf.gz").write_bytes(b"")  # only *.wcnf files are instances
    r = run_cli("bench", str(empty))
    assert_clean_error(r)
    assert f"apxmaxsat: no *.wcnf instances in {empty}" in r.stderr
    assert r.stdout == ""
    assert run_cli("bench", str(suite), "--config", "zig:1").returncode == 1


def test_bench_bad_sidecar_or_config_exit_one(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a.wcnf").write_text(E1_TEXT)
    side = tmp_path / "best.txt"
    for text, line in (("a.wcnf 1\nlonely\n", 2), ("# costs\na.wcnf x\n", 2),
                       ("a.wcnf -3\n", 1)):
        side.write_text(text)
        r = run_cli("bench", str(suite), "--sidecar", str(side))
        assert_clean_error(r)
        assert f"line {line}" in r.stderr
    assert_clean_error(run_cli("bench", str(suite), "--sidecar",
                               str(tmp_path / "missing.txt")))
    assert_clean_error(run_cli("bench", str(suite), "--config", "apx-weight:2",
                               "--config", "apx-weight:2"))
    assert_clean_error(run_cli("bench", str(suite), "--config", "apx-subprob:0"))
    # rejected before any run, even where no instance has a soft clause
    no_soft = tmp_path / "no_soft"
    no_soft.mkdir()
    (no_soft / "h.wcnf").write_text("p wcnf 2 1 5\n5 1 2 0\n")
    assert_clean_error(run_cli("bench", str(no_soft), "--config", "apx-subprob:0"))


def test_bench_records_instance_not_utf8_as_parse_error(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a.wcnf").write_bytes(b"p wcnf 1 1 5\n5 1 0 \xff\n")
    (suite / "b.wcnf").write_text(E1_TEXT)
    report = tmp_path / "report.json"
    r = run_cli("bench", str(suite), "--config", "apx-weight:0",
                "--report", str(report))
    assert r.returncode == 0
    assert "avg-score" in r.stdout and "Traceback" not in r.stderr
    results = {os.path.basename(path): rec["results"]["apx-weight/m=0"]
               for path, rec in json.loads(report.read_text())["instances"].items()}
    assert results["a.wcnf"]["status"].startswith("parse_error: line 2")
    assert results["b.wcnf"]["status"] == "optimum_for_approximation"


def test_bench_report_into_missing_directory_exit_one(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a.wcnf").write_text(E1_TEXT)
    r = run_cli("bench", str(suite), "--config", "apx-weight:0",
                "--report", str(tmp_path / "missing" / "r.json"))
    assert_clean_error(r)
    assert "avg-score" in r.stdout  # the table printed before the failed write


# ----------------------------------------------------------------------
# graceful termination

def test_sigterm_during_parsing_reports_unknown(e1_path):
    # the parser signals its own process, as a SIGTERM arriving mid-parse would
    script = (
        "import os, signal, sys\n"
        "from apxmaxsat import cli, wcnf\n"
        "real = wcnf.parse_wcnf\n"
        "def parse(text):\n"
        "    os.kill(os.getpid(), signal.SIGTERM)\n"
        "    return real(text)\n"
        "wcnf.parse_wcnf = parse\n"
        f"sys.exit(cli.main(['solve', {e1_path!r}]))\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["s UNKNOWN"]


def test_sigterm_dumps_best_model(tmp_path):
    rng = seeded_rng(404)
    # a slow minimization: hard random 3-CNF plus conflicting soft units
    n = 60
    hard = []
    for _ in range(int(n * 3.8)):
        vs = rng.sample(range(1, n + 1), 3)
        hard.append(wcnf.Clause.of([v if rng.random() < 0.5 else -v for v in vs]))
    soft = []
    for v in range(1, n + 1):
        soft.append((wcnf.Clause.of([v]), 1 + (v % 7)))
        soft.append((wcnf.Clause.of([-v]), 1 + (v * 3 % 11)))
    f = wcnf.WcnfFormula(n, hard, soft)
    p = tmp_path / "slow.wcnf"
    p.write_text(wcnf.serialize_wcnf(f))
    proc = subprocess.Popen(
        [sys.executable, "-m", "apxmaxsat", "solve", str(p),
         "--algorithm", "apx-weight", "--clusters", "0", "--timeout", "600"],
        stdout=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    if not first.startswith("o "):
        proc.kill()
        pytest.skip("no first model observed")
    time.sleep(0.3)
    proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise
    full = first + out
    if proc.returncode == 30:
        # finished before the signal landed; protocol still intact
        assert "s OPTIMUM FOUND" in full
        return
    assert proc.returncode == 10
    assert "s SATISFIABLE" in full
    assert v_lines(full)
