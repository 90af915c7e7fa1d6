#!/usr/bin/env python3
"""Compare the searches of this checkout with those of another one.

Loads --root's src/apxmaxsat as the alias package `ab_other` beside this
checkout's apxmaxsat, in one process pinned to one CPU (neither needs to be
a git checkout), and runs each solve on both sides back to back, the side
going first alternating; each side parses the same WDIMACS text with its
own parse_wcnf and solves it with its own search.solve. The solves are the
paper's nine configs (apx-weight m=0,1,2,3,weights, apx-subprob
m=1,2,3,weights) at 2000 conflicts on seeds 0..--seeds-1 of
harness.random_wcnf, random_bmo_wcnf, fidelity_family and planted_family
and on every *.wcnf file in --dir, with solver seed = instance index; with
--workload, also every task of perfbench's workloads.make_batch(--workload,
--seed, b) for b < --rounds under the batch's conflict and wall limits.

Prints how many reports differ in status, bounds, exact, clusters,
fallbacks, cost, trace costs, solver_stats, encoders (each build's inputs,
clauses, variables and refusal) or warm, naming each on stderr; exits 1 if
any does. --answers compares the first six only, for a change that may move
the search's path but not its answers. A solve in which a side ran out of
the batch's wall limit is timed, not compared: its path depends on the
clock. Then prints each side's median and total seconds (parse and solve,
as perfbench's solve_in_process times them), median seconds to the first
improvement and solves won, and the median this/root time ratio; the
host's drift mostly cancels within a pair. A search that raises names its
side and exits 2.

    python scripts/search_diff.py --root ../parent --seeds 20 --dir suite/
    python scripts/search_diff.py --root ../parent --seeds 0 --answers \\
        --workload planted-large --seed 7 --rounds 3
"""

import argparse
import dataclasses
import importlib.util
import random
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from apxmaxsat import search, wcnf  # noqa: E402

ALIAS = "ab_other"
ANSWERS = ("status", "bounds", "exact", "clusters", "fallbacks", "cost")
FIELDS = ANSWERS + ("trace_costs", "solver_stats", "encoders", "warm")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, required=True,
                        help="checkout to compare with (its src/apxmaxsat is loaded)")
    parser.add_argument("--seeds", type=int, default=10,
                        help="instances drawn per seeded harness family (default 10)")
    parser.add_argument("--dir", type=Path, help="also run every *.wcnf file here")
    parser.add_argument("--answers", action="store_true", help="compare the answers only: "
                        "status, bounds, exact, clusters, fallbacks, cost")
    parser.add_argument("--workload", help="also run this perfbench workload's batches")
    parser.add_argument("--seed", type=int, default=1,
                        help="the workload's seed, as perfbench/run.py --seed (default 1)")
    parser.add_argument("--rounds", type=int, default=1,
                        help="workload batches run, 0..N-1 (default 1)")
    args = parser.parse_args(argv)
    if not (args.root / "src" / "apxmaxsat" / "__init__.py").is_file():
        parser.error(f"--root {args.root} has no src/apxmaxsat")
    if args.seeds < 0:
        parser.error(f"--seeds must be >= 0, got {args.seeds}")
    if args.dir is not None and not args.dir.is_dir():
        parser.error(f"--dir {args.dir} is not a directory")
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")
    if args.workload is not None:
        import workloads  # after the cheap checks: it loads numpy
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
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


def solves(args) -> tuple[int, list[tuple[str, str, dict]]]:
    """(instance count, [(label, WDIMACS text, SearchConfig fields)])."""
    import workloads
    from apxmaxsat import harness
    named = [(f"{family}/{seed}", wcnf.serialize_wcnf(make(random.Random(seed))))
             for family, make in (("random", harness.random_wcnf),
                                  ("bmo", harness.random_bmo_wcnf),
                                  ("fidelity", harness.fidelity_family),
                                  ("planted", harness.planted_family))
             for seed in range(args.seeds)]
    if args.dir is not None:
        named += [(p.name, p.read_text()) for p in sorted(args.dir.glob("*.wcnf"))]
    out = [(f"{name} {algorithm}/m={m}", text,
            {"algorithm": algorithm, "clusters": m, "max_conflicts": 2000, "seed": i})
           for i, (name, text) in enumerate(named)
           for algorithm, m in workloads.FIDELITY_CONFIGS]  # the paper's nine
    count = len(named)
    for b in range(args.rounds if args.workload else 0):
        batch = workloads.make_batch(args.workload, args.seed, b)
        count += len(batch.instances)
        out += [(f"{batch.instances[t.instance].name} {t.label()}",
                 batch.instances[t.instance].text,
                 {"algorithm": t.algorithm, "clusters": t.clusters,
                  "max_conflicts": batch.max_conflicts, "timeout_s": batch.timeout_s})
                for t in batch.tasks]
    return count, out


def solve_once(search_mod, wcnf_mod, text: str, config: dict):
    """(seconds, seconds to the first improvement or None, report fields)
    of one parse and solve with one side's modules."""
    first: list[float] = []

    def on_improve(model):
        if not first:
            first.append(time.perf_counter())

    started = time.perf_counter()
    r = search_mod.solve(wcnf_mod.parse_wcnf(text), search_mod.SearchConfig(**config),
                         on_improve)
    elapsed = time.perf_counter() - started
    fields = {f: getattr(r, f) for f in ANSWERS + ("solver_stats", "warm")}
    fields.update(trace_costs=[c for _, c in r.trace],
                  encoders=[dataclasses.astuple(e) for e in r.encoders])
    return elapsed, (first[0] - started if first else None), fields


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"this": (search, wcnf), "root": load_other(args.root)}
    from run import pin_to_one_cpu
    pin_to_one_cpu()
    count, todo = solves(args)
    compared = ANSWERS if args.answers else FIELDS
    per_field = dict.fromkeys(compared, 0)
    runs = {name: [] for name in sides}  # (seconds, seconds to the first improvement)
    differ = wall_limited = 0
    for n, (label, text, config) in enumerate(todo):
        got = {}
        for name in list(sides)[::1 if n % 2 == 0 else -1]:
            try:
                got[name] = solve_once(*sides[name], text, config)
            except Exception:
                where = args.root if name == "root" else ROOT
                print(f"error: the search in {where} failed on {label}:", file=sys.stderr)
                traceback.print_exc()
                return 2
            runs[name].append(got[name][:2])
        limit = config.get("timeout_s")
        if limit is not None and max(got["this"][0], got["root"][0]) >= limit:
            wall_limited += 1
            continue
        fields = [f for f in compared if got["this"][2][f] != got["root"][2][f]]
        for f in fields:
            per_field[f] += 1
        if fields:
            differ += 1
            print(f"{label}: {', '.join(fields)}", file=sys.stderr)
    print(f"{count} instances, {len(todo)} reports: {differ} differ, "
          f"{wall_limited} ran out of the wall limit")
    print(" ".join(f"{f}={n}" for f, n in per_field.items()))
    if not todo:
        return 0
    pairs = [(a, b) for (a, _), (b, _) in zip(runs["this"], runs["root"])]
    won = {"this": sum(a < b for a, b in pairs), "root": sum(b < a for a, b in pairs)}
    print(f"{'side':6s} {'median_s':>10s} {'total_s':>10s} {'first_o_median_s':>17s} "
          f"{'won':>5s}")
    for name in sides:
        firsts = [f for _, f in runs[name] if f is not None]
        first = f"{statistics.median(firsts):.6f}" if firsts else "-"
        secs = [s for s, _ in runs[name]]
        print(f"{name:6s} {statistics.median(secs):10.6f} {sum(secs):10.4f} {first:>17s} "
              f"{won[name]:5d}")
    print(f"median this/root time ratio {statistics.median(a / b for a, b in pairs):.4f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
