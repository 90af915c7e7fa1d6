#!/usr/bin/env python3
"""Compare the searches of this checkout with those of another one.

Runs the paper's nine configs (apx-weight m=0,1,2,3,weights and
apx-subprob m=1,2,3,weights) at 2000 conflicts on the same instances in
this checkout and in the one given by --root, each in a subprocess that
imports that checkout's own src/; neither needs to be a git checkout. The
instances are seeded harness.random_wcnf, random_bmo_wcnf and
fidelity_family instances (seeds 0..N-1 of each, drawn here), plus every
*.wcnf file in --dir; both sides get the same WDIMACS text, and the solver
seed of each report is its instance's index. Prints how many reports
differ in status, bounds, exact, clusters, fallbacks, cost, trace costs,
solver_stats, encoders (each build's inputs, clauses, variables and
refusal) or warm, naming each on stderr, and exits 1 if any does.
--answers compares only status, bounds, exact, clusters, fallbacks and
cost, for a change that may move the search's path (its trace, solver
stats and encoder builds) but not its answers.

    python scripts/search_diff.py --root ../parent --seeds 20 --dir suite/
    python scripts/search_diff.py --root ../parent --seeds 20 --answers
"""

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ANSWERS = ("status", "bounds", "exact", "clusters", "fallbacks", "cost")
FIELDS = ANSWERS + ("trace_costs", "solver_stats", "encoders", "warm")

# Run in each checkout: reads a JSON list of WDIMACS texts on stdin and
# prints one JSON list of reports, nine per instance.
CHILD = """
import dataclasses, json, sys
from apxmaxsat import search, wcnf
from apxmaxsat.search import APX_SUBPROB, APX_WEIGHT, SearchConfig
configs = ([(APX_WEIGHT, m) for m in (0, 1, 2, 3, "weights")]
           + [(APX_SUBPROB, m) for m in (1, 2, 3, "weights")])
out = []
for i, text in enumerate(json.load(sys.stdin)):
    f = wcnf.parse_wcnf(text)
    for algorithm, m in configs:
        r = search.solve(f, SearchConfig(algorithm=algorithm, clusters=m,
                                         max_conflicts=2000, seed=i))
        out.append({"instance": i, "config": f"{algorithm}/m={m}", "status": r.status,
                    "bounds": r.bounds, "exact": r.exact, "clusters": r.clusters,
                    "fallbacks": r.fallbacks, "cost": r.cost,
                    "trace_costs": [c for _, c in r.trace],
                    "solver_stats": r.solver_stats,
                    "encoders": [dataclasses.astuple(e) for e in r.encoders],
                    "warm": r.warm})
json.dump(out, sys.stdout)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, required=True,
                        help="checkout to compare with (its src/ is imported)")
    parser.add_argument("--seeds", type=int, default=10,
                        help="instances drawn per seeded family (default 10)")
    parser.add_argument("--dir", type=Path, help="also run every *.wcnf file here")
    parser.add_argument("--answers", action="store_true",
                        help="compare the answers only, not trace costs, solver stats, "
                             "encoders or warm")
    args = parser.parse_args(argv)
    if not (args.root / "src" / "apxmaxsat").is_dir():
        parser.error(f"--root {args.root} has no src/apxmaxsat")
    if args.seeds < 0:
        parser.error(f"--seeds must be >= 0, got {args.seeds}")
    if args.dir is not None and not args.dir.is_dir():
        parser.error(f"--dir {args.dir} is not a directory")
    return args


def instances(seeds: int, directory: Path | None) -> list[tuple[str, str]]:
    """(name, WDIMACS text) of every instance, drawn with this checkout's
    harness."""
    sys.path.insert(0, str(ROOT / "src"))
    from apxmaxsat import harness, wcnf

    out = []
    for family, make in (("random", harness.random_wcnf),
                         ("bmo", harness.random_bmo_wcnf),
                         ("fidelity", harness.fidelity_family)):
        out += [(f"{family}/{seed}", wcnf.serialize_wcnf(make(random.Random(seed))))
                for seed in range(seeds)]
    if directory is not None:
        out += [(p.name, p.read_text()) for p in sorted(directory.glob("*.wcnf"))]
    return out


def reports(root: Path, texts: list[str]) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(root.resolve() / "src")}
    run = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(texts),
                         capture_output=True, text=True, env=env)
    if run.returncode != 0:
        print(f"error: the search in {root} failed:\n{run.stderr}", file=sys.stderr)
        sys.exit(2)
    return json.loads(run.stdout)


def main(argv=None) -> int:
    args = parse_args(argv)
    named = instances(args.seeds, args.dir)
    texts = [text for _, text in named]
    ours, theirs = reports(ROOT, texts), reports(args.root, texts)
    compared = ANSWERS if args.answers else FIELDS
    per_field = dict.fromkeys(compared, 0)
    differ = 0
    for a, b in zip(ours, theirs):
        fields = [f for f in compared if a[f] != b[f]]
        for f in fields:
            per_field[f] += 1
        if fields:
            differ += 1
            print(f"{named[a['instance']][0]} {a['config']}: {', '.join(fields)}",
                  file=sys.stderr)
    print(f"{len(named)} instances, {len(ours)} reports: {differ} differ")
    print(" ".join(f"{f}={n}" for f, n in per_field.items()))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
