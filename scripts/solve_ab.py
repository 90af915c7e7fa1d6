#!/usr/bin/env python3
"""Time this checkout's solves against another checkout's, pair by pair.

Loads the src/apxmaxsat of the checkout given by --root under the alias
package `ab_other`, beside this checkout's apxmaxsat, in one process pinned
to one CPU. It then solves every task of perfbench's
workloads.make_batch(--workload, --seed, b), for b in 0..--rounds-1, once
with each side, alternating from task to task which side goes first. Each
side parses the instance's WDIMACS text with its own wcnf.parse_wcnf and
solves it with its own search.solve under the batch's conflict and wall
limits, timed as perfbench's solve_in_process times a solve: from before
the parse to the return, with the first improvement stamped by the
callback.

Prints each side's median and total solve time, its median time to first
improvement, the pairs it solved faster, and the median of the per-pair
time ratios this/root. Times are wall seconds, not scaled to a reference
speed: both sides of a pair run back to back on one CPU, so the host's
drift mostly cancels within a pair, which the per-layer wall seconds of a
traced benchmark run cannot offer. Exits 1 if a pair differs in status,
cost, trace costs or solver_stats, naming each on stderr. A pair in which
a side ran out of the batch's wall limit is timed but not compared: its
search path depends on the clock.

    python scripts/solve_ab.py --root ../parent --workload planted-large --seed 7 --rounds 3
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from apxmaxsat import search, wcnf  # noqa: E402
from run import pin_to_one_cpu  # noqa: E402

ALIAS = "ab_other"
COMPARED = ("status", "cost", "trace_costs", "solver_stats")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, required=True,
                        help="checkout to compare with (its src/apxmaxsat is loaded)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1,
                        help="batches solved, 0..N-1 (default 1)")
    args = parser.parse_args(argv)
    if not (args.root / "src" / "apxmaxsat" / "__init__.py").is_file():
        parser.error(f"--root {args.root} has no src/apxmaxsat")
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")
    return args


def load_other(root: Path):
    """(search, wcnf) of the checkout at root, imported as ALIAS."""
    pkg = root.resolve() / "src" / "apxmaxsat"
    spec = importlib.util.spec_from_file_location(
        ALIAS, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[ALIAS] = module
    spec.loader.exec_module(module)
    return (importlib.import_module(f"{ALIAS}.search"),
            importlib.import_module(f"{ALIAS}.wcnf"))


def solve_once(side, text: str, task, batch):
    """(seconds, seconds to the first improvement or None, compared fields)
    of one parse and solve with the given side's modules."""
    search_mod, wcnf_mod = side
    cfg = search_mod.SearchConfig(algorithm=task.algorithm, clusters=task.clusters,
                                  max_conflicts=batch.max_conflicts,
                                  timeout_s=batch.timeout_s)
    first: list[float] = []

    def on_improve(model):
        if not first:
            first.append(time.perf_counter())

    started = time.perf_counter()
    report = search_mod.solve(wcnf_mod.parse_wcnf(text), cfg, on_improve)
    elapsed = time.perf_counter() - started
    fields = {"status": report.status, "cost": report.cost,
              "trace_costs": [c for _, c in report.trace],
              "solver_stats": report.solver_stats}
    return elapsed, (first[0] - started if first else None), fields


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"this": (search, wcnf), "root": load_other(args.root)}
    pin_to_one_cpu()
    times = {name: [] for name in sides}
    firsts = {name: [] for name in sides}
    won = dict.fromkeys(sides, 0)
    ratios = []
    pairs = differ = timed_out = 0
    for b in range(args.rounds):
        batch = workloads.make_batch(args.workload, args.seed, b)
        for task in batch.tasks:
            order = list(sides) if pairs % 2 == 0 else list(sides)[::-1]
            pairs += 1
            text = batch.instances[task.instance].text
            got = {name: solve_once(sides[name], text, task, batch) for name in order}
            for name, (elapsed, first, _) in got.items():
                times[name].append(elapsed)
                if first is not None:
                    firsts[name].append(first)
            this_s, root_s = got["this"][0], got["root"][0]
            ratios.append(this_s / root_s)
            if this_s != root_s:
                won["this" if this_s < root_s else "root"] += 1
            if batch.timeout_s is not None and max(this_s, root_s) >= batch.timeout_s:
                timed_out += 1
                continue
            fields = [f for f in COMPARED if got["this"][2][f] != got["root"][2][f]]
            if fields:
                differ += 1
                print(f"batch {b} instance {task.instance} {task.label()}: "
                      f"{', '.join(fields)}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {pairs} pairs, {differ} differ, "
          f"{timed_out} ran out of the wall limit")
    print(f"{'side':6s} {'median_s':>10s} {'total_s':>10s} {'first_o_median_s':>17s} "
          f"{'won':>5s}")
    for name in sides:
        first = f"{statistics.median(firsts[name]):.6f}" if firsts[name] else "-"
        print(f"{name:6s} {statistics.median(times[name]):10.6f} "
              f"{sum(times[name]):10.4f} {first:>17s} {won[name]:5d}")
    print(f"median this/root time ratio {statistics.median(ratios):.4f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
