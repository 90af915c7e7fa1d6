#!/usr/bin/env python3
"""Snapshot the solve benchmark into a JSON file.

Runs the benchmark command of BENCHMARK.json (`perfbench/run.py`) once for
every workload it lists, at seed 1 for its `run_seconds`, in the checkout
given by --root (this one by default), so the run measures that checkout's
own src/ and benchmark settings; --root must be the top of a git checkout
with a commit. The result line of each run (the last line it prints) is
stored with the checkout's commit, and whether its working tree differed
from that commit, as one snapshot appended to the file's "snapshots" list;
the file is created when it does not exist. A run that fails or whose last
line is not a JSON object stops the script, which then writes nothing.
Quote before-and-after figures from two snapshots in one file, taken on the
same host.

    python scripts/bench_snapshot.py BENCH.json --label parent --root ../parent
    python scripts/bench_snapshot.py BENCH.json --label change
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON file to append the snapshot to")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--label", default="snapshot")
    args = parser.parse_args(argv)
    args.root = args.root.resolve()
    for need in ("BENCHMARK.json", "perfbench/run.py"):
        if not (args.root / need).is_file():
            parser.error(f"--root {args.root} has no {need}")
    top = subprocess.run(["git", "-C", str(args.root), "rev-parse", "--show-toplevel",
                          "HEAD"], capture_output=True, text=True)
    if top.returncode != 0 or top.stdout.splitlines()[0] != str(args.root):
        parser.error(f"--root {args.root} is not a git checkout with a commit")
    if not args.out.parent.is_dir():
        parser.error(f"no directory for {args.out}")
    if args.out.exists():
        try:
            json.loads(args.out.read_text())["snapshots"]
        except (ValueError, KeyError, TypeError):
            parser.error(f"{args.out} is not a snapshot file")
    return args


def commands(bench: dict) -> dict[str, list[str]]:
    """The command of each workload of a parsed BENCHMARK.json, keyed by
    workload name."""
    command = [sys.executable if c in ("python", "python3") else c
               for c in bench["command"]]
    return {w["name"]: command + ["--workload", w["name"], "--seed", str(SEED),
                                  "--seconds", str(bench["run_seconds"])]
            for w in bench["workloads"]}


def git(root: Path, *argv) -> str:
    return subprocess.run(["git", "-C", str(root), *argv], capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.root / "BENCHMARK.json").read_text())
    snapshot = {"label": args.label, "commit": git(args.root, "rev-parse", "HEAD"),
                "dirty": bool(git(args.root, "status", "--porcelain", "--untracked-files=no")),
                "seed": SEED, "seconds": bench["run_seconds"], "workloads": {}}
    for name, argv_ in commands(bench).items():
        print(f"{args.label}: {' '.join(argv_[1:])}", file=sys.stderr, flush=True)
        run = subprocess.run(argv_, cwd=args.root, capture_output=True, text=True)
        if run.returncode != 0:
            sys.stderr.write(run.stdout + run.stderr)
            print(f"error: workload {name} exited with {run.returncode}", file=sys.stderr)
            return 1
        try:
            result = json.loads(run.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if not isinstance(result, dict):
            print(f"error: workload {name} printed no result line", file=sys.stderr)
            return 1
        snapshot["workloads"][name] = result
    data = json.loads(args.out.read_text()) if args.out.exists() else {"snapshots": []}
    data["snapshots"].append(snapshot)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
