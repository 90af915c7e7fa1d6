import os
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


@pytest.mark.parametrize("family", ["random", "bmo", "fidelity"])
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
