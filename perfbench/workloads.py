"""Seeded workloads of the solve benchmark and the checks on their answers.

A run of the benchmark sets up a few batches of a workload. A batch is a
list of instances, each with its optimum, and the tasks (instance,
algorithm, cluster count) that one pass solves in order. Passes cycle
through the batches, so a run averages over all of their instances. Every
optimum is known by construction, independently of the solver.

Every check returns a list of failure reasons. OVERRUN is the only reason
that marks a late answer rather than a wrong one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from apxmaxsat import clustering, harness, search, wcnf
from apxmaxsat.search import APX_SUBPROB, APX_WEIGHT, CLUSTERS_WEIGHTS

FIDELITY_INSTANCES = 6
FIDELITY_CONFLICTS = 2000
# harness.fidelity_family draws each mid-tier weight from 20..34, so the
# sum over the pairs centres on FIDELITY_MID_MEAN per pair. Instances are
# redrawn until their sum lies within FIDELITY_MID_SLACK of that centre:
# see fidelity_instance.
FIDELITY_MID_MEAN = 27
FIDELITY_MID_SLACK = 4
FIDELITY_CONFIGS = ([(APX_WEIGHT, m) for m in (0, 1, 2, 3, CLUSTERS_WEIGHTS)]
                    + [(APX_SUBPROB, m) for m in (1, 2, 3, CLUSTERS_WEIGHTS)])

PLANTED_INSTANCES = 4
PLANTED_CONFLICTS = 20000
# 2.5 clauses per variable keeps the first SAT call at a few conflicts on
# every seed; at 3.0 it ranges from 10 to 90 and the spread of
# first_o_s_p50 across seeds follows it.
PLANTED_CLAUSE_RATIO = 2.5
PLANTED_MAX_WEIGHT = 8
# apx-weight m=0 is the exact reference: with planted weights in 1..8 its
# GTE stays small, so it loads the same layers as the other two configs.
PLANTED_CONFIGS = [(APX_WEIGHT, 0), (APX_WEIGHT, 1), (APX_SUBPROB, CLUSTERS_WEIGHTS)]

# Exact GTE size grows as 2^n: n=12..15 finish well inside the budget and
# n=19 returns 1-3 s past it. n=16 to 18 finish near the budget or the slack
# on some seeds, so they are left out to keep decided and failed counts
# independent of the host's speed. With the control, a pass has 7 solves;
# three n=14 instances put both the median and the tail rank of a 4-6 pass
# run inside the n=14 group, so neither jumps between sizes. An even n has
# no unpaired unit, whose random weight makes GTE time vary more.
WIDE_SIZES = (12, 13, 14, 14, 14, 19)
WIDE_MAX_WEIGHT = 10 ** 6
WIDE_TIMEOUT_S = 2.0
WIDE_SLACK_S = 0.5
WIDE_CONTROL = (APX_SUBPROB, CLUSTERS_WEIGHTS)

OVERRUN = "overrun"


@dataclass
class Instance:
    name: str
    text: str
    formula: wcnf.WcnfFormula
    optimum: int


@dataclass(frozen=True)
class Task:
    instance: int
    algorithm: str
    clusters: int | str

    def label(self) -> str:
        return f"{self.algorithm}/m={self.clusters}"


@dataclass
class Batch:
    instances: list[Instance]
    tasks: list[Task]
    max_conflicts: int | None = None
    timeout_s: float | None = None
    cli: bool = False


# ----------------------------------------------------------------------
# generators


def planted_instance(rng: random.Random, num_vars: int = 3600, units: int = 16,
                     pairs: int = 8) -> tuple[wcnf.WcnfFormula, int]:
    """Planted-satisfiable random 3-CNF with weighted soft units and pair
    gadgets; returns (formula, optimum).

    Every hard 3-clause is satisfied by a hidden model and every soft unit
    agrees with it, so that part costs 0. Each pair gadget on two fresh
    variables a, b has a hard clause (a or b) and soft units -a, -b: one of
    them must be paid, so the optimum is the sum over pairs of the smaller
    weight."""
    hidden = [False] + [rng.random() < 0.5 for _ in range(num_vars)]
    hard = []
    for _ in range(int(PLANTED_CLAUSE_RATIO * num_vars)):
        while True:
            lits = [v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, num_vars + 1), 3)]
            if any(hidden[abs(l)] == (l > 0) for l in lits):
                break
        hard.append(wcnf.Clause.of(lits))
    soft = [(wcnf.Clause.of([v if hidden[v] else -v]), rng.randint(1, PLANTED_MAX_WEIGHT))
            for v in rng.sample(range(1, num_vars + 1), units)]
    optimum = 0
    for i in range(pairs):
        a, b = num_vars + 2 * i + 1, num_vars + 2 * i + 2
        wa, wb = rng.randint(1, PLANTED_MAX_WEIGHT), rng.randint(1, PLANTED_MAX_WEIGHT)
        hard.append(wcnf.Clause.of([a, b]))
        soft += [(wcnf.Clause.of([-a]), wa), (wcnf.Clause.of([-b]), wb)]
        optimum += min(wa, wb)
    return wcnf.WcnfFormula(num_vars + 2 * pairs, hard, soft), optimum


def wide_instance(rng: random.Random, n: int) -> tuple[wcnf.WcnfFormula, int]:
    """n soft units -x with distinct weights up to WIDE_MAX_WEIGHT, paired by hard
    clauses (x_a or x_b); an odd last unit stays unpaired and costs 0.
    Returns (formula, optimum = sum over pairs of the smaller weight).

    Pairs are oriented so that the b-side weights sum to about half of the
    paired total. The solver's first model pays every b, so this keeps the
    first bound, and with it the size of the exact GTE, alike across seeds."""
    ws = rng.sample(range(1, WIDE_MAX_WEIGHT + 1), n)
    pairs = sorted(((ws[2 * i], ws[2 * i + 1]) for i in range(n // 2)),
                   key=lambda p: -abs(p[0] - p[1]))
    hard = []
    soft = []
    optimum = 0
    imbalance = 0  # sum of (w_b - w_a) so far
    for i, (w1, w2) in enumerate(pairs):
        lo, hi = sorted((w1, w2))
        wa, wb = (hi, lo) if imbalance > 0 else (lo, hi)
        imbalance += wb - wa
        a, b = 2 * i + 1, 2 * i + 2
        hard.append(wcnf.Clause.of([a, b]))
        soft += [(wcnf.Clause.of([-a]), wa), (wcnf.Clause.of([-b]), wb)]
        optimum += min(wa, wb)
    if n % 2:
        soft.append((wcnf.Clause.of([-n]), ws[-1]))
    return wcnf.WcnfFormula(n, hard, soft), optimum


def _instance(name: str, f: wcnf.WcnfFormula, optimum: int) -> Instance:
    return Instance(name, wcnf.serialize_wcnf(f), f, optimum)


def fidelity_instance(rng: random.Random, pairs: int = 8,
                      decoys: int = 39) -> tuple[wcnf.WcnfFormula, int]:
    """harness.fidelity_family without its random ternary "texture" clauses;
    returns (formula, optimum).

    The texture clauses make the solver's first model pay extra decoys on
    about a third of the instances, which doubles or triples the first bound
    and the exact GTE built from it, so per-seed speed and memory swing by
    30-50%. Without them each choice pair (hard v or u, soft -u mid-tier,
    soft -v low-tier) pays its smaller weight and the decoys pay nothing.

    The solver's first model pays every mid-tier weight, and the exact GTE
    is built from that first bound. Its sum over the pairs is held within
    FIDELITY_MID_SLACK of its mean by redrawing, so the largest GTE of a
    run, which sets its peak memory and its slowest solves, is alike across
    seeds: without this, runs whose largest sum reached 235 peaked 3 MB
    (14%) higher than runs whose largest stayed at 232 or below."""
    target = FIDELITY_MID_MEAN * pairs
    while True:
        f = harness.fidelity_family(rng, pairs, decoys)
        mids = sum(f.soft[2 * i][1] for i in range(pairs))
        if abs(mids - target) <= FIDELITY_MID_SLACK:
            break
    optimum = sum(min(f.soft[2 * i][1], f.soft[2 * i + 1][1]) for i in range(pairs))
    return wcnf.WcnfFormula(f.num_vars, f.hard[:pairs], f.soft), optimum


def make_batch(name: str, seed: int, batch: int) -> Batch:
    """Build one batch of the named workload: the instances and tasks of one
    pass, seeded by (seed, batch)."""
    rng = random.Random(f"{name}/{seed}/{batch}")
    if name == "fidelity-sweep":
        instances = [_instance(f"fid{batch}_{i}", *fidelity_instance(rng))
                     for i in range(FIDELITY_INSTANCES)]
        return Batch(instances, _grid(instances, FIDELITY_CONFIGS),
                     max_conflicts=FIDELITY_CONFLICTS)
    if name == "planted-large":
        instances = [_instance(f"planted{batch}_{i}", *planted_instance(rng))
                     for i in range(PLANTED_INSTANCES)]
        return Batch(instances, _grid(instances, PLANTED_CONFIGS),
                     max_conflicts=PLANTED_CONFLICTS)
    if name == "wide-weights-cli":
        instances = [_instance(f"wide{batch}_{i}", *wide_instance(rng, n))
                     for i, n in enumerate(WIDE_SIZES)]
        # An odd number of tasks keeps the median inside one task's group.
        tasks = [Task(i, APX_WEIGHT, 0) for i in range(len(instances))]
        tasks.append(Task(len(instances) - 1, *WIDE_CONTROL))
        return Batch(instances, tasks, timeout_s=WIDE_TIMEOUT_S, cli=True)
    raise ValueError(f"unknown workload {name!r}")


def _grid(instances: list[Instance], configs) -> list[Task]:
    return [Task(i, a, m) for i in range(len(instances)) for a, m in configs]


WORKLOADS = ("fidelity-sweep", "planted-large", "wide-weights-cli")


# ----------------------------------------------------------------------
# checks


def exact_weights(f: wcnf.WcnfFormula, task: Task) -> bool:
    """apx-weight whose clustered weights equal the true ones: m=0, or m at
    least the number of distinct weights."""
    if task.algorithm != APX_WEIGHT:
        return False
    m = search.resolve_clusters(f, task.clusters)
    return m == 0 or m >= clustering.distinct_weight_count(f)


def _model_reasons(f: wcnf.WcnfFormula, assignment, claimed_cost: int) -> list[str]:
    verdict, value = wcnf.check_model(f, assignment)
    if verdict != "valid":
        return ["invalid_model"]
    if value != claimed_cost:
        return ["cost_mismatch"]
    return []


def check_report(inst: Instance, task: Task, report: search.SearchReport) -> list[str]:
    """Failure reasons of an in-process search report."""
    f = inst.formula
    # Every benchmark instance has a model, and a model is kept exactly
    # when the status is not UNKNOWN.
    if (report.status == search.UNSATISFIABLE
            or (report.best is None) != (report.status == search.UNKNOWN)):
        return ["wrong_status"]
    if report.best is None:
        return []
    best = report.best
    reasons = _model_reasons(f, best.assignment, best.true_cost)
    costs = [c for _, c in report.trace]
    if (any(b >= a for a, b in zip(costs, costs[1:]))
            or not costs or costs[-1] != best.true_cost):
        reasons.append("trace_order")
    if best.true_cost < inst.optimum:
        reasons.append("below_optimum")
    if (report.status == search.OPTIMUM_FOR_APPROXIMATION
            and exact_weights(f, task) and best.true_cost != inst.optimum):
        reasons.append("exact_not_optimal")
    return reasons


_EXIT_OF_S_LINE = {"s OPTIMUM FOUND": 30, "s SATISFIABLE": 10,
                   "s UNSATISFIABLE": 20, "s UNKNOWN": 0}


def check_cli(inst: Instance, task: Task, stdout: str, exit_code: int,
              elapsed_s: float, timeout_s: float):
    """Failure reasons of one `apxmaxsat solve` run, and its final cost (None
    without an `o` line)."""
    f = inst.formula
    reasons = []
    costs: list[int] = []
    s_lines: list[str] = []
    v_lines: list[str] = []
    for line in stdout.splitlines():
        if line.startswith("o "):
            try:
                costs.append(int(line[2:]))
            except ValueError:
                reasons.append("o_line")
        elif line.startswith("s "):
            s_lines.append(line.strip())
        elif line.startswith("v "):
            v_lines.append(line)
    cost = costs[-1] if costs else None
    if any(b >= a for a, b in zip(costs, costs[1:])):
        reasons.append("trace_order")
    if len(s_lines) != 1 or _EXIT_OF_S_LINE.get(s_lines[0]) != exit_code:
        reasons.append("s_line")
    elif s_lines[0] == "s UNSATISFIABLE" or (s_lines[0] == "s UNKNOWN") != (cost is None):
        reasons.append("s_line")
    if cost is not None:
        model = _parse_v_line(v_lines, f.num_vars)
        if model is None:
            reasons.append("v_line")
        else:
            reasons += _model_reasons(f, model, cost)
        if cost < inst.optimum:
            reasons.append("below_optimum")
        if s_lines == ["s OPTIMUM FOUND"] and (
                cost != inst.optimum or (task.algorithm, task.clusters) != (APX_WEIGHT, 0)):
            reasons.append("exact_not_optimal")
    elif v_lines:
        reasons.append("v_line")
    if elapsed_s > timeout_s + WIDE_SLACK_S:
        reasons.append(OVERRUN)
    return reasons, cost


def _parse_v_line(v_lines: list[str], num_vars: int):
    """The assignment of a single `v` line over 1..num_vars, or None."""
    if len(v_lines) != 1:
        return None
    try:
        lits = [int(t) for t in v_lines[0].split()[1:]]
    except ValueError:
        return None
    assignment = {abs(l): l > 0 for l in lits if l != 0}
    if len(assignment) != len(lits) or set(assignment) != set(range(1, num_vars + 1)):
        return None
    return assignment


def score(optimum: int, cost: int | None) -> float:
    """optimum/found; 0 without a model, 1 when both are 0."""
    if cost is None:
        return 0.0
    return 1.0 if cost == 0 else optimum / cost
