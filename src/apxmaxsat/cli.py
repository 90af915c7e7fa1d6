"""Command-line front end.

`solve` speaks the evaluation wire protocol: an `o <cost>` line is flushed
on every strict improvement, then exactly one `s` line and, when a model
exists, a `v` line with signed literals for the original variables only.
`s OPTIMUM FOUND` is claimed exactly when the search report is exact (see
search.SearchReport); approximated runs never claim optimality. Exit codes:
30 optimum, 10 satisfiable, 20 unsatisfiable, 0 unknown, 1 usage/IO errors.

`bench` runs configurations over a directory and prints the score table,
`encode` dumps a bounding constraint's CNF as DIMACS, and `oracle` reports
the brute-force optimum of a small instance.

Import rule: only `bench` and `oracle` import harness (and with it numpy),
inside their handlers, so a `solve` process loads just the layers it runs
and reaches its first `o` line sooner.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path

from . import search, wcnf
from .encodings import MAX_GTE_CLAUSES, CnfBuffer, GeneralizedTotalizer

EXIT_OPTIMUM = 30
EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0
EXIT_ERROR = 1
_SOLVER_STATS = ("conflicts", "decisions", "propagations", "restarts", "reductions")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _clusters_value(text: str):
    if text == search.CLUSTERS_WEIGHTS:
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'weights', got {text!r}") from None


def _at_least(parse, least):
    """An argparse type for budgets and counts: a number read by parse,
    >= least."""
    def value(text: str):
        try:
            number = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {parse.__name__}, got {text!r}") from None
        if not number >= least:  # also rejects nan, which no deadline ever reaches
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {text!r}")
        return number
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="apxmaxsat",
                     description="Anytime weighted partial MaxSAT solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one WDIMACS instance")
    p_solve.add_argument("instance")
    p_solve.add_argument("--algorithm",
                         choices=[search.APX_WEIGHT, search.APX_SUBPROB],
                         default=search.APX_SUBPROB)
    p_solve.add_argument("--clusters", type=_clusters_value,
                         default=search.CLUSTERS_WEIGHTS,
                         help="cluster count m, or 'weights' for m=#distinct weights")
    p_solve.add_argument("--timeout", type=_at_least(float, 0), default=300.0,
                         help="wall-clock budget in seconds (default 300)")
    p_solve.add_argument("--conflicts", type=_at_least(int, 0), default=None,
                         help="deterministic conflict budget")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--verbosity", type=int, choices=[0, 1, 2], default=0)
    p_solve.set_defaults(run=_cmd_solve)

    p_bench = sub.add_parser("bench", help="score configurations over a directory")
    p_bench.add_argument("directory")
    p_bench.add_argument("--config", action="append", default=[],
                         metavar="ALGORITHM:CLUSTERS",
                         help="repeatable, e.g. apx-subprob:weights or apx-weight:2")
    p_bench.add_argument("--timeout", type=_at_least(float, 0), default=None)
    p_bench.add_argument("--conflicts", type=_at_least(int, 0), default=None)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--workers", type=_at_least(int, 1), default=1)
    p_bench.add_argument("--sidecar", default=None,
                         help="file of externally known best costs")
    p_bench.add_argument("--report", default=None,
                         help="write the machine-readable report here")
    p_bench.set_defaults(run=_cmd_bench)

    p_enc = sub.add_parser("encode", help="dump a bounding constraint as DIMACS")
    p_enc.add_argument("kind", choices=["card", "pb"])
    p_enc.add_argument("--inputs", type=int, default=None,
                       help="number of input variables (cardinality)")
    p_enc.add_argument("--weights", default=None,
                       help="comma-separated weights (pseudo-Boolean)")
    p_enc.add_argument("--bound", type=int, required=True)
    p_enc.add_argument("--max-bound", type=int, default=None,
                       help="encoding cap for pb (default: sum of weights)")
    p_enc.set_defaults(run=_cmd_encode)

    p_oracle = sub.add_parser("oracle", help="brute-force optimum (small instances)")
    p_oracle.add_argument("instance")
    p_oracle.set_defaults(run=_cmd_oracle)
    return parser


def _load_instance(path: str):
    try:
        text = Path(path).read_bytes()
    except OSError as e:
        print(f"apxmaxsat: cannot read {path}: {e}", file=sys.stderr)
        return None
    try:
        return wcnf.parse_wcnf(text)
    except wcnf.WcnfParseError as e:
        print(f"apxmaxsat: {path}: {e}", file=sys.stderr)
        return None


def _print_v_line(model: wcnf.Model, num_vars: int) -> None:
    lits = (str(v) if model.assignment[v] else str(-v)
            for v in range(1, num_vars + 1))
    print("v " + " ".join(lits), flush=True)


def _cmd_solve(args) -> int:
    stop_flag = threading.Event()
    try:
        cfg = search.SearchConfig(
            algorithm=args.algorithm, clusters=args.clusters,
            timeout_s=args.timeout, max_conflicts=args.conflicts,
            seed=args.seed, stop=stop_flag.is_set)
    except ValueError as e:
        print(f"apxmaxsat: {e}", file=sys.stderr)
        return EXIT_ERROR

    def _handler(signum, frame):
        stop_flag.set()

    # installed before parsing, so a stop during parsing still ends with an
    # `s` line: the search sees the flag before it loads the solver
    try:
        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)
    except ValueError:
        pass  # not on the main thread; cooperative stop stays unused
    f = _load_instance(args.instance)
    if f is None:
        return EXIT_ERROR
    if args.verbosity >= 1:
        print(f"c algorithm={args.algorithm} clusters={args.clusters} "
              f"timeout={args.timeout} seed={args.seed}", flush=True)
        for warning in f.warnings:
            print(f"c warning: {warning}", flush=True)

    def on_improve(model: wcnf.Model) -> None:
        print(f"o {model.true_cost}", flush=True)
        if args.verbosity >= 2:
            print(f"c approx cost {model.approx_cost}", flush=True)

    report = search.solve(f, cfg, on_improve)
    if args.verbosity >= 1:
        if report.warm is not None:
            k, first, last = report.warm
            print(f"c warm k={k} first={first} last={last}", flush=True)
        fallbacks = iter(report.fallbacks)  # one per refused build, in order
        for build in report.encoders:
            print(f"c encoder inputs={build.inputs} clauses={build.clauses} "
                  f"variables={build.variables} refused={int(build.refused)}", flush=True)
            if build.refused:
                refused, retried = next(fallbacks)
                then = (f"retrying at m={retried}" if retried is not None
                        else "keeping the best model")
                print(f"c encoding over {MAX_GTE_CLAUSES} clauses at m={refused}; {then}",
                      flush=True)
        if report.solver_stats:
            print("c solver " + " ".join(
                f"{k}={report.solver_stats[k]}" for k in _SOLVER_STATS), flush=True)
    if report.status == search.UNSATISFIABLE:
        print("s UNSATISFIABLE", flush=True)
        return EXIT_UNSAT
    if report.best is None:
        print("s UNKNOWN", flush=True)
        return EXIT_UNKNOWN
    print("s OPTIMUM FOUND" if report.exact else "s SATISFIABLE", flush=True)
    _print_v_line(report.best, f.num_vars)
    return EXIT_OPTIMUM if report.exact else EXIT_SAT


def _cmd_bench(args) -> int:
    configs = []
    try:  # every config is checked before anything runs
        for token in args.config or ["apx-subprob:weights", "apx-weight:2"]:
            algorithm, colon, clusters = token.partition(":")
            if not colon:
                raise ValueError(f"bad config {token!r}; expected ALGORITHM:CLUSTERS")
            configs.append(search.SearchConfig(
                algorithm=algorithm, clusters=_clusters_value(clusters), seed=args.seed))
    except (ValueError, argparse.ArgumentTypeError) as e:
        print(f"apxmaxsat: {e}", file=sys.stderr)
        return EXIT_ERROR
    if not Path(args.directory).is_dir():
        print(f"apxmaxsat: not a directory: {args.directory}", file=sys.stderr)
        return EXIT_ERROR
    from . import harness  # here, not at the top: solve never loads numpy
    try:
        table = harness.run_benchmarks(
            args.directory, configs, timeout_s=args.timeout,
            max_conflicts=args.conflicts, workers=args.workers,
            sidecar=args.sidecar)
    except (OSError, ValueError) as e:  # bad sidecar, duplicate configs, no instance
        print(f"apxmaxsat: {e}", file=sys.stderr)
        return EXIT_ERROR
    print(table.table_text(), end="")
    if args.report:
        try:
            harness.write_report(table, args.report)
        except OSError as e:
            print(f"apxmaxsat: cannot write report: {e}", file=sys.stderr)
            return EXIT_ERROR
    return 0


def _cmd_encode(args) -> int:
    bound = args.bound
    if args.kind == "card":
        if args.inputs is None or args.inputs < 1:
            print("apxmaxsat: card needs --inputs N (N >= 1)", file=sys.stderr)
            return EXIT_ERROR
        if args.inputs > MAX_GTE_CLAUSES:  # the output links alone pass the cap
            print(f"apxmaxsat: encoding over {MAX_GTE_CLAUSES} clauses", file=sys.stderr)
            return EXIT_ERROR
        weights = [1] * args.inputs
        cap = args.inputs
        bound = min(bound, cap)  # at most N of N inputs holds anyway
    else:
        if not args.weights:
            print("apxmaxsat: pb needs --weights w1,w2,...", file=sys.stderr)
            return EXIT_ERROR
        try:
            weights = [int(t) for t in args.weights.split(",")]
        except ValueError:
            print("apxmaxsat: bad --weights", file=sys.stderr)
            return EXIT_ERROR
        cap = args.max_bound if args.max_bound is not None else sum(weights)
    buf = CnfBuffer(len(weights))
    try:
        gte = GeneralizedTotalizer(
            list(zip(range(1, len(weights) + 1), weights)), cap, buf)
        gte.set_bound(bound, buf)
    except ValueError as e:
        print(f"apxmaxsat: {e}", file=sys.stderr)
        return EXIT_ERROR
    print(buf.to_dimacs(), end="")
    return 0


def _cmd_oracle(args) -> int:
    from . import harness  # here, not at the top: solve never loads numpy
    f = _load_instance(args.instance)
    if f is None:
        return EXIT_ERROR
    try:
        result = harness.brute_force_optimum(f)
    except ValueError as e:
        print(f"apxmaxsat: {e}", file=sys.stderr)
        return EXIT_ERROR
    if result is None:
        print("s UNSATISFIABLE", flush=True)
        return EXIT_UNSAT
    cost, assignment = result
    print(f"o {cost}", flush=True)
    print("s OPTIMUM FOUND", flush=True)
    _print_v_line(wcnf.Model(assignment, cost, cost), f.num_vars)
    return EXIT_OPTIMUM


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)
