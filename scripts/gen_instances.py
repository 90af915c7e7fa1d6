#!/usr/bin/env python3
"""Write a directory of seeded random WDIMACS instances.

Four families are available: `random` (small weighted partial instances
with a satisfiable hard part), `bmo` (multilevel-dominant weight structure,
solved exactly by greedy per-cluster minimization at m=#weights),
`fidelity` (many distinct weights in gap-separated tiers, for cluster-count
sweeps), and `planted` (a 412-variable planted-satisfiable 3-CNF with pair
gadgets, whose SAT calls barely conflict but decide most of the formula).
"""

import argparse
import random
from pathlib import Path

from apxmaxsat import harness, wcnf


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory")
    parser.add_argument("--family", choices=["random", "bmo", "fidelity", "planted"],
                        default="random")
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.directory)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    make = {"random": harness.random_wcnf,
            "bmo": harness.random_bmo_wcnf,
            "fidelity": harness.fidelity_family,
            "planted": harness.planted_family}[args.family]
    for i in range(args.count):
        f = make(rng)
        path = out / f"{args.family}_{args.seed:04d}_{i:03d}.wcnf"
        path.write_text(wcnf.serialize_wcnf(f))
        print(path)


if __name__ == "__main__":
    main()
