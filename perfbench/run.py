#!/usr/bin/env python3
"""Solve benchmark: seeded workloads through apxmaxsat's public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload fidelity-sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): fidelity-sweep and planted-large
run wcnf.parse_wcnf -> search.solve in this process; wide-weights-cli runs
apxmaxsat.cli.main in a child process through child.py, a stand-in for
`python -m apxmaxsat` that also reports the child's own peak RSS. Each is a
closed loop with one solve at a time. --seed makes the instances; the
solver keeps its default seed, so a run's answers depend on its instances
alone.

A run sets up each of its BATCHES batches SETUPS_PER_BATCH times. A set-up
generates the batch (instances, optima and, for the CLI, instance files)
and starts a fresh interpreter that imports apxmaxsat.cli; the median time
of all set-ups, scaled to the reference speed like the solve times, is
setup_s. The run then solves one batch per pass, cycling
through the batches, until --seconds have elapsed and at least MIN_SOLVES
solves are done, finishes the pass under way, and checks every answer.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes over the same batch and prints the per-layer metrics of the
traced ones, plus the tracing overhead (median solve time of a traced pass
minus that of an untraced pass, in reference seconds); the spans are
written to .perfbench_out/. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; its failed counts wrong
answers, while answers past the wall budget count in ok_share and in the
printed failed_share.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

if __name__ == "__main__":
    _SRC = Path.cwd() / "src"
    if not (_SRC / "apxmaxsat" / "__init__.py").is_file():
        sys.exit("perfbench: run from the repository root; src/apxmaxsat is missing")
    sys.path.insert(0, str(_SRC))

import workloads  # noqa: E402
from apxmaxsat import search, wcnf  # noqa: E402
from child import status_kb  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

HERE = Path(__file__).resolve().parent
BATCHES = 3
SETUPS_PER_BATCH = 3
MIN_SOLVES = 21  # so that solve_s_tail, 10 solves from the top, is at least the median
CHILD_KILL_S = 60.0  # a CLI child still running after this is killed
# Solve times are scaled to a reference machine speed: the host's speed
# drifts by +-25% over tens of seconds, which a calibration loop run next to
# every solve measures and divides out. CAL_REF_S is the loop's time at the
# reference speed.
CAL_REF_S = 0.01
IMPORT_PROBE = ("import time; t = time.perf_counter(); import apxmaxsat.cli; "
                "print(time.perf_counter() - t)")


@dataclass
class Solve:
    task: workloads.Task
    optimum: int
    exact: bool  # apx-weight with the true weights
    elapsed_s: float
    first_o_s: float | None
    decided: bool
    cost: int | None
    reasons: list[str]
    rss_mb: float | None = None
    speed: float = 1.0  # CAL_REF_S over the calibration time around the solve

    @property
    def ref_s(self) -> float:
        return self.elapsed_s * self.speed


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of the integer, list and dict
    operations the solver itself spends its time on."""
    started = time.perf_counter()
    values = list(range(512))
    seen = {}
    acc = 0
    for i in range(80000):
        v = values[i & 511]
        acc += v * v
        seen[v] = i
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# set-up and single solves


def pin_to_one_cpu() -> None:
    """Keep the benchmark and its children on one CPU, so that the
    calibration loop runs on the core whose speed it is meant to measure."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # affinity not available: run unpinned


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def set_up(name: str, seed: int, index: int, env: dict, workdir: Path):
    """One batch set-up: instances, optima and a fresh-interpreter import.
    Returns (batch, seconds, import seconds measured in the child)."""
    started = time.perf_counter()
    batch = workloads.make_batch(name, seed, index)
    if batch.cli:
        for inst in batch.instances:
            (workdir / f"{inst.name}.wcnf").write_text(inst.text)
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=CHILD_KILL_S)
    return batch, time.perf_counter() - started, float(probe.stdout)


def _solve_record(batch, task, **fields) -> Solve:
    inst = batch.instances[task.instance]
    return Solve(task, inst.optimum, workloads.exact_weights(inst.formula, task), **fields)


def solve_in_process(batch, task, tracer, solve_id: int) -> Solve:
    inst = batch.instances[task.instance]
    cfg = search.SearchConfig(algorithm=task.algorithm, clusters=task.clusters,
                              max_conflicts=batch.max_conflicts,
                              timeout_s=batch.timeout_s)
    first: list[float] = []

    def on_improve(model):
        if not first:
            first.append(time.perf_counter())

    span = tracer.solve(solve_id, "bench.solve") if tracer else nullcontext()
    started = time.perf_counter()
    try:
        with span:
            report = search.solve(wcnf.parse_wcnf(inst.text), cfg, on_improve)
    except Exception:
        traceback.print_exc()
        return _solve_record(batch, task, elapsed_s=time.perf_counter() - started,
                             first_o_s=None, decided=False, cost=None,
                             reasons=["exception"])
    elapsed = time.perf_counter() - started
    return _solve_record(
        batch, task, elapsed_s=elapsed,
        first_o_s=first[0] - started if first else None,
        decided=report.status in (search.OPTIMUM_FOR_APPROXIMATION, search.UNSATISFIABLE),
        cost=report.best.true_cost if report.best else None,
        reasons=workloads.check_report(inst, task, report))


def solve_cli(batch, task, tracer, solve_id: int, workdir: Path, env: dict) -> Solve:
    inst = batch.instances[task.instance]
    out_file = workdir / "child_out.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(out_file), str(int(bool(tracer))),
           "solve", str(workdir / f"{inst.name}.wcnf"), "--algorithm", task.algorithm,
           "--clusters", str(task.clusters), "--timeout", str(batch.timeout_s)]
    span = tracer.solve(solve_id, "cli.process") if tracer else nullcontext()
    lines: list[str] = []
    first = None
    with span as root:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
        killer = threading.Timer(CHILD_KILL_S, proc.kill)
        killer.start()
        try:
            for raw in proc.stdout:
                if first is None and raw.startswith(b"o "):
                    first = time.perf_counter() - started
                lines.append(raw.decode())
        finally:
            proc.wait()
            elapsed = time.perf_counter() - started
            killer.cancel()
            proc.stdout.close()
    child_out = {}
    if out_file.exists():  # absent when the child was killed
        with open(out_file) as f:
            child_out = json.load(f)
        out_file.unlink()
    if tracer and "spans" in child_out:
        tracer.adopt(child_out["spans"], root, solve_id)
    reasons, cost = workloads.check_cli(inst, task, "".join(lines), proc.returncode,
                                        elapsed, batch.timeout_s)
    rss_kb = child_out.get("peak_rss_kb")
    return _solve_record(batch, task, elapsed_s=elapsed, first_o_s=first,
                         decided=proc.returncode in (20, 30), cost=cost,
                         reasons=reasons, rss_mb=rss_kb / 1024 if rss_kb else None)


# ----------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, str]:
    """Value at the highest percentile with at least 10 samples beyond it,
    and its label. A run makes at least MIN_SOLVES solves, so it exists."""
    ordered = sorted(values)
    n = len(ordered)
    if n < MIN_SOLVES:
        raise ValueError(f"solve_s_tail needs {MIN_SOLVES} solves, got {n}")
    rank = n - 10
    return ordered[rank - 1], f"p{100 * rank // n}, n={n}"


def end_to_end(solves: list[Solve], cli: bool, setups: list[tuple[float, float]],
               loop_rss_mb: tuple[float, float]) -> list[tuple]:
    """(name, value, unit, note) rows of the end-to-end metrics.
    setups holds each set-up's (wall seconds, speed); loop_rss_mb is this
    process's (RSS, peak RSS) when the timed loop began."""
    n = len(solves)
    times = [s.ref_s for s in solves]
    firsts = [s.first_o_s * s.speed for s in solves if s.first_o_s is not None]
    failed = sum(1 for s in solves if s.reasons)
    tail_s, tail_note = tail(times)
    if cli:
        peaks = [s.rss_mb for s in solves if s.rss_mb is not None]
        peak, peak_note = max(peaks), f"largest child's own peak, n={len(peaks)}"
    else:
        # The solves' own peak: growth of this process's peak over its RSS
        # when the loop began, which holds the interpreter, the imports and
        # the batches.
        base, setup_peak = loop_rss_mb
        peak = status_kb("VmHWM") / 1024 - base
        peak_note = (f"peak over {base:.1f} MB RSS at loop start; "
                     f"{setup_peak:.1f} MB peak before it")
    scores = [workloads.score(s.optimum, s.cost) for s in solves]
    return [
        ("setup_s", statistics.median(wall * speed for wall, speed in setups), "s",
         f"median of {len(setups)} set-ups at the reference speed, "
         f"wall {statistics.median(wall for wall, _ in setups):.4f} s"),
        ("solve_s_p50", statistics.median(times), "ref_s",
         f"n={n}, wall {statistics.median(s.elapsed_s for s in solves):.4f} s"),
        ("solve_s_tail", tail_s, "ref_s", tail_note),
        ("first_o_s_p50", statistics.median(firsts) if firsts else 0.0, "ref_s",
         f"n={len(firsts)}"),
        ("solves_per_s", n / sum(times), "1/ref_s", f"n={n}, solve time only"),
        ("score_avg", statistics.fmean(scores), "ratio", f"n={n}, optimum/found"),
        ("decided_share", sum(s.decided for s in solves) / n, "share", f"n={n}"),
        ("ok_share", 1 - failed / n, "share",
         f"n={n}, right and on time, 1 - failed_share"),
        ("peak_rss_mb", peak, "MB", peak_note),
    ]


def report_only_rows(solves: list[Solve], timeout_s: float | None) -> list[tuple]:
    """Rows printed for the reader but not part of the JSON metrics:
    failed_share (0 on most workloads) and overrun_s_p50 (wall-budget
    workloads only)."""
    n = len(solves)
    reasons: dict[str, int] = {}
    for s in solves:
        for r in s.reasons:
            reasons[r] = reasons.get(r, 0) + 1
    failed = sum(1 for s in solves if s.reasons)
    why = ", ".join(f"{k}={v}" for k, v in sorted(reasons.items())) or "none"
    rows = [("failed_share", failed / n, "share", f"{failed} of {n}; {why}")]
    if timeout_s is not None:
        over = [s.elapsed_s - timeout_s for s in solves if s.elapsed_s >= timeout_s]
        rows.append(("overrun_s_p50", statistics.median(over) if over else 0.0, "s",
                     f"n={len(over)} solves that reached the {timeout_s:g} s budget"))
    return rows


def per_layer(tracer: Tracer, solves: list[Solve], traced_ids: set[int],
              pass_ref_s: dict[bool, list[float]], import_s: list[float]) -> list[tuple]:
    """(name, value, unit, note) rows of the per-layer metrics."""
    passes = len(pass_ref_s[True])
    exact_ids = {i for i in traced_ids if solves[i].exact}
    rows = [(k, v, _unit(k), f"per traced pass, {passes} passes")
            for k, v in summarize(tracer.spans, traced_ids, exact_ids, passes).items()]
    rows.append(("cli.import_s", statistics.median(import_s), "s",
                 f"median of {len(import_s)} fresh-interpreter imports"))
    traced_s = statistics.median(pass_ref_s[True])
    untraced_s = statistics.median(pass_ref_s[False])
    rows.append(("trace.overhead_s", traced_s - untraced_s, "ref_s",
                 f"median pass {traced_s:.3f} ref_s traced, {untraced_s:.3f} ref_s not"))
    rows.append(("trace.overhead_share", (traced_s - untraced_s) / untraced_s,
                 "share", "of the untraced pass"))
    return rows


def _unit(name: str) -> str:
    if name.startswith(("share.", "exact.")):
        return "share"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("per_sat_call"):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    root = Path.cwd()
    env = child_env(root / "src")
    outdir = root / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    solves: list[Solve] = []
    traced_ids: set[int] = set()
    pass_ref_s: dict[bool, list[float]] = {False: [], True: []}
    with tempfile.TemporaryDirectory(dir=outdir) as tmp:
        workdir = Path(tmp)
        batches, setups, import_s = [], [], []
        # Every set-up's batch stays alive until the run ends: the solves
        # could otherwise reuse memory freed here and hide part of their
        # peak from peak_rss_mb.
        kept = []
        cal_before = calibrate()
        for index in range(BATCHES):
            for _ in range(SETUPS_PER_BATCH):  # the same batch each time
                batch, took, imported = set_up(args.workload, args.seed, index, env, workdir)
                cal_after = calibrate()
                setups.append((took, 2 * CAL_REF_S / (cal_before + cal_after)))
                cal_before = cal_after
                kept.append(batch)
                import_s.append(imported)
            batches.append(batch)
        gc.collect()
        loop_rss_mb = (status_kb("VmRSS") / 1024, status_kb("VmHWM") / 1024)

        n_passes = 0
        started = time.perf_counter()
        with tracer.installed() if tracer else nullcontext():
            while True:
                traced = bool(tracer) and n_passes % 2 == 1
                # A traced pass repeats the batch of the untraced pass before it.
                batch = batches[(n_passes // 2 if tracer else n_passes) % BATCHES]
                active = tracer if traced else None
                first_solve = len(solves)
                cal_before = calibrate()
                for task in batch.tasks:
                    solve_id = len(solves)
                    if batch.cli:
                        s = solve_cli(batch, task, active, solve_id, workdir, env)
                    else:
                        s = solve_in_process(batch, task, active, solve_id)
                    cal_after = calibrate()
                    s.speed = 2 * CAL_REF_S / (cal_before + cal_after)
                    cal_before = cal_after
                    if traced:
                        traced_ids.add(solve_id)
                    solves.append(s)
                pass_ref_s[traced].append(sum(s.ref_s for s in solves[first_solve:]))
                n_passes += 1
                if (time.perf_counter() - started >= args.seconds
                        and len(solves) >= MIN_SOLVES and (not tracer or traced)):
                    break
        loop_s = time.perf_counter() - started

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{n_passes} passes over {BATCHES} batches, {len(solves)} solves "
          f"in {loop_s:.1f} s")
    wrong = [s for s in solves if set(s.reasons) - {workloads.OVERRUN}]
    for s in wrong:
        print(f"  wrong answer: {s.task.label()} on instance {s.task.instance}: "
              f"{', '.join(s.reasons)}")
    if tracer:
        rows = per_layer(tracer, solves, traced_ids, pass_ref_s, import_s)
        spans_path = outdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"spans written to {spans_path.relative_to(root)}")
    else:
        rows = end_to_end(solves, batches[0].cli, setups, loop_rss_mb)
    for name, value, unit, note in rows + report_only_rows(solves, batches[0].timeout_s):
        print(f"  {name:34s} {value:14.6f} {unit:7s} ({note})")
    print(json.dumps(result_line(solves, rows)))
    return 0


def result_line(solves: list[Solve], rows: list[tuple]) -> dict:
    """The last stdout line. failed counts wrong answers only: a late but
    right answer (OVERRUN) is a speed defect, which ok_share and the
    printed failed_share report, so that the count of failed operations
    does not depend on the host's speed."""
    failed = sum(1 for s in solves if set(s.reasons) - {workloads.OVERRUN})
    return {
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }


if __name__ == "__main__":
    sys.exit(main())
