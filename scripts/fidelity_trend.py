#!/usr/bin/env python3
"""Sweep the cluster count m for both algorithms over a seeded instance
family and print the average score per configuration.

Reproduces, at desk scale, the cluster-count-versus-score experiment: with
few clusters the approximated weights are coarse and the searches trade the
wrong soft clauses; as m approaches the number of distinct weights, both
algorithms converge to the exact behavior. Scores are relative to the
per-instance virtual best over all configurations in the sweep.
"""

import argparse
import random
import tempfile
from pathlib import Path

from apxmaxsat import harness, wcnf
from apxmaxsat.satcore import Budget
from apxmaxsat.search import APX_SUBPROB, APX_WEIGHT, SearchConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=30)
    parser.add_argument("--seed", type=int, default=20250810)
    parser.add_argument("--conflicts", type=int, default=2000,
                        help="deterministic conflict budget per run")
    parser.add_argument("--timeout", type=float, default=None,
                        help="wall-clock budget per run (seconds)")
    parser.add_argument("--weight-grid", default="0,1,2,3,weights")
    parser.add_argument("--subprob-grid", default="1,2,3,weights")
    parser.add_argument("--keep", default=None,
                        help="write instances here instead of a temp dir")
    parser.add_argument("--report", default=None,
                        help="write the machine-readable report here")
    args = parser.parse_args()

    def grid(text):
        return [m if m == "weights" else int(m) for m in text.split(",") if m]

    try:  # refuse a bad count, budget or grid before any instance is written
        if args.instances < 1:
            raise ValueError(f"--instances must be >= 1, got {args.instances}")
        Budget(args.timeout, args.conflicts)
        configs = [SearchConfig(algorithm=APX_WEIGHT, clusters=m)
                   for m in grid(args.weight_grid)]
        configs += [SearchConfig(algorithm=APX_SUBPROB, clusters=m)
                    for m in grid(args.subprob_grid)]
    except ValueError as e:
        parser.error(str(e))
    # the sweep scores every *.wcnf in the directory, so it must hold only ours
    if args.keep and next(Path(args.keep).glob("*.wcnf"), None) is not None:
        parser.error(f"--keep {args.keep} already holds *.wcnf instances")

    with tempfile.TemporaryDirectory() as tmp:  # removed on exit; --keep is not
        directory = Path(args.keep or tmp)
        rng = random.Random(args.seed)
        directory.mkdir(parents=True, exist_ok=True)
        for i in range(args.instances):
            f = harness.fidelity_family(rng)
            (directory / f"fid_{i:03d}.wcnf").write_text(wcnf.serialize_wcnf(f))

        table = harness.run_benchmarks(directory, configs,
                                       timeout_s=args.timeout,
                                       max_conflicts=args.conflicts)
        print(table.table_text(), end="")
        if args.report:
            harness.write_report(table, args.report)


if __name__ == "__main__":
    main()
