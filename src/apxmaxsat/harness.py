"""Verification and evaluation tooling.

* brute_force_optimum: exhaustive oracle over all assignments (bit-parallel
  via numpy), guarded to small variable counts. Independent of the search
  code paths it is used to check.
* score: evaluation-style solution quality, best_known/found as an exact
  rational in [0, 1]; 0 when no solution was found.
* run_benchmarks: runs a set of search configurations over a directory of
  WDIMACS instances, tracks the virtual best per instance (optionally
  merged with a sidecar file of externally known costs), and produces a
  machine-readable report plus a plain-text table. Its rows are the
  searches' own reports (search.SearchReport) without their models, so a
  report row carries every field a search reports.
* random_wcnf / random_bmo_wcnf / fidelity_family / planted_family: seeded
  instance generators for tests and desk-scale experiments.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import search, wcnf

_ORACLE_VAR_LIMIT = 24
_CHUNK_BITS = 20


def _clause_masks(clause: wcnf.Clause) -> tuple[int, int]:
    pos = 0
    neg = 0
    for l in clause.lits:
        if l > 0:
            pos |= 1 << (l - 1)
        else:
            neg |= 1 << (-l - 1)
    return pos, neg


def brute_force_optimum(f: wcnf.WcnfFormula, weights=None):
    """Minimum cost over all assignments satisfying the hard clauses.

    Returns (cost, assignment dict) or None when the hard part is
    unsatisfiable. weights optionally substitutes the soft weight sequence.
    Enumerates all 2^num_vars assignments; num_vars must be <= 24.
    """
    if f.num_vars > _ORACLE_VAR_LIMIT:
        raise ValueError(
            f"brute force guard: {f.num_vars} variables exceeds {_ORACLE_VAR_LIMIT}")
    ws = list(f.soft_weights) if weights is None else list(weights)
    use_object = sum(ws) >= 2 ** 62
    dtype = object if use_object else np.int64
    hard_masks = [_clause_masks(c) for c in f.hard]
    soft_masks = [(_clause_masks(c), w) for (c, _), w in zip(f.soft, ws)]
    total = 1 << f.num_vars
    best_cost = None
    best_index = None
    for start in range(0, total, 1 << _CHUNK_BITS):
        end = min(start + (1 << _CHUNK_BITS), total)
        a = np.arange(start, end, dtype=np.int64)
        ok = np.ones(len(a), dtype=bool)
        for pos, neg in hard_masks:
            ok &= ((a & pos) != 0) | ((~a & neg) != 0)
        if not ok.any():
            continue
        cost = np.zeros(len(a), dtype=dtype)
        for (pos, neg), w in soft_masks:
            sat = ((a & pos) != 0) | ((~a & neg) != 0)
            cost[~sat] += w
        if use_object:
            idx = min((i for i in range(len(a)) if ok[i]), key=lambda i: cost[i])
            chunk_best = cost[idx]
        else:
            cost_ok = np.where(ok, cost, np.iinfo(np.int64).max)
            idx = int(np.argmin(cost_ok))
            chunk_best = int(cost_ok[idx])
        if best_cost is None or chunk_best < best_cost:
            best_cost = chunk_best
            best_index = start + idx
    if best_cost is None:
        return None
    assignment = {v: bool(best_index >> (v - 1) & 1) for v in range(1, f.num_vars + 1)}
    return int(best_cost), assignment


def score(best_known: int, found: int | None) -> Fraction:
    """Solution-quality score best_known/found as an exact rational.

    None (no solution) scores 0; found == best_known == 0 scores 1. found
    below best_known signals broken virtual-best bookkeeping and raises.
    """
    if found is None:
        return Fraction(0)
    if best_known < 0:
        raise ValueError("best_known must be >= 0")
    if found < best_known:
        raise ValueError(f"found cost {found} below best known {best_known}")
    if found == 0:
        return Fraction(1)
    return Fraction(best_known, found)


# ----------------------------------------------------------------------
# seeded instance families


def random_wcnf(rng: random.Random, max_vars: int = 16, max_clauses: int = 30,
                max_weight: int = 20, min_soft: int = 1) -> wcnf.WcnfFormula:
    """Small random weighted partial instance with a satisfiable hard part
    (rejection-sampled against the brute-force oracle)."""
    while True:
        n = rng.randint(3, max_vars)
        total = rng.randint(max(2, min_soft), max_clauses)
        hard: list[wcnf.Clause] = []
        soft: list[tuple[wcnf.Clause, int]] = []
        for _ in range(total):
            width = rng.randint(1, min(3, n))
            vs = rng.sample(range(1, n + 1), width)
            lits = [v if rng.random() < 0.5 else -v for v in vs]
            if rng.random() < 0.4:
                hard.append(wcnf.Clause.of(lits))
            else:
                soft.append((wcnf.Clause.of(lits), rng.randint(1, max_weight)))
        if len(soft) < min_soft:
            continue
        f = wcnf.WcnfFormula(n, hard, soft)
        if brute_force_optimum(f) is not None:
            return f


def random_bmo_wcnf(rng: random.Random, max_vars: int = 14,
                    max_levels: int = 4) -> wcnf.WcnfFormula:
    """Instance whose soft weights form strictly dominating levels: each
    level's weight exceeds the total weight of everything below it, so
    per-level greedy minimization is exact."""
    while True:
        n = rng.randint(4, max_vars)
        levels = rng.randint(2, max_levels)
        counts = [rng.randint(1, 3) for _ in range(levels)]
        weights: list[int] = []
        total_below = 0
        w = rng.randint(1, 3)
        for c in counts:  # build from the lowest level up
            weights.append(w)
            total_below += w * c
            w = total_below + rng.randint(1, 3)
        hard = []
        for _ in range(rng.randint(1, n // 2)):
            vs = rng.sample(range(1, n + 1), rng.randint(2, min(3, n)))
            hard.append(wcnf.Clause.of([v if rng.random() < 0.5 else -v for v in vs]))
        soft = []
        pool = rng.randint(2, max(2, n // 2))  # small pool so soft goals clash
        for level in range(levels):
            for _ in range(counts[level]):
                vs = rng.sample(range(1, pool + 1), rng.randint(1, 2))
                lits = [v if rng.random() < 0.5 else -v for v in vs]
                soft.append((wcnf.Clause.of(lits), weights[level]))
        f = wcnf.WcnfFormula(n, hard, soft)
        if brute_force_optimum(f) is not None:
            return f


def fidelity_family(rng: random.Random, pairs: int = 8,
                    decoys: int = 39) -> wcnf.WcnfFormula:
    """Instance with many distinct soft weights in three gap-separated
    tiers, used to study how clustering granularity trades off solution
    quality.

    Each of `pairs` choice pairs has a hard clause (v or u) plus soft units
    preferring both false: the unit on u carries a mid-tier weight and the
    one on v a low-tier weight, so the cheap resolution of every pair is to
    flip v true. Low-tier and mid-tier weights sit 5 apart and the decoy
    tier (always-satisfiable units that only widen the weight spectrum) sits
    further out, so coarse clusterings merge the two tiers that matter and
    mis-price the trades while three or more clusters price them correctly.
    All soft weights are distinct."""
    n = 2 * pairs + decoys
    hard: list[wcnf.Clause] = []
    soft: list[tuple[wcnf.Clause, int]] = []
    smalls = rng.sample(range(1, 16), pairs)
    mids = rng.sample(range(20, 35), pairs)
    decoy_ws = rng.sample(range(45, 45 + 2 * decoys), decoys)
    for i in range(pairs):
        v, u = 2 * i + 1, 2 * i + 2
        hard.append(wcnf.Clause.of([v, u]))
        soft.append((wcnf.Clause.of([-u]), mids[i]))
        soft.append((wcnf.Clause.of([-v]), smalls[i]))
    for j in range(decoys):
        soft.append((wcnf.Clause.of([-(2 * pairs + 1 + j)]), decoy_ws[j]))
    while True:
        texture = []
        for _ in range(6):  # easy ternary clauses for conflict texture
            vs = rng.sample(range(1, n + 1), 3)
            lits = [x if rng.random() < 0.4 else -x for x in vs]
            if all(l > 0 for l in lits):
                lits[0] = -lits[0]
            texture.append(wcnf.Clause.of(lits))
        f = wcnf.WcnfFormula(n, hard + texture, soft)
        if search.check_hard(f, max_conflicts=20000)[0].value == "SAT":
            return f


def planted_family(rng: random.Random, n: int = 400, units: int = 12,
                   pairs: int = 6) -> wcnf.WcnfFormula:
    """Planted-satisfiable random 3-CNF of 2.5n clauses, each satisfied by
    a hidden model that every soft unit (weight 1-8) agrees with, plus pair
    gadgets: a hard (a or b) on fresh a, b and soft units -a, -b. SAT calls
    that barely conflict but decide most of the formula."""
    hidden = [rng.random() < 0.5 for _ in range(n + 1)]
    hard = []
    while len(hard) < 5 * n // 2:
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        if any(hidden[abs(l)] == (l > 0) for l in lits):
            hard.append(wcnf.Clause.of(lits))
    soft = [(wcnf.Clause.of([v if hidden[v] else -v]), rng.randint(1, 8))
            for v in rng.sample(range(1, n + 1), units)]
    for a in range(n + 1, n + 2 * pairs, 2):
        hard.append(wcnf.Clause.of([a, a + 1]))
        soft += [(wcnf.Clause.of([-a]), rng.randint(1, 8)),
                 (wcnf.Clause.of([-a - 1]), rng.randint(1, 8))]
    return wcnf.WcnfFormula(n + 2 * pairs, hard, soft)


# ----------------------------------------------------------------------
# batch runner


@dataclass
class ScoreTable:
    """Per-instance search reports (without their models) and scores for
    every configuration, plus the virtual best (lowest cost seen by any
    configuration, merged with any sidecar values) and per-configuration
    average scores. An instance that did not parse has, for every
    configuration, a report whose status starts with "parse_error:"."""

    instances: list[str]
    configs: list[str]
    best_known: dict[str, int | None]
    records: dict[str, dict[str, search.SearchReport]]
    scores: dict[str, dict[str, Fraction]]
    averages: dict[str, Fraction]

    def to_json_dict(self) -> dict:
        out = {"instances": {}, "averages": {}}
        for path in self.instances:
            recs = {}
            for label in self.configs:
                r = self.records[path][label]
                sc = self.scores[path][label]
                row = asdict(r)
                del row["best"]
                recs[label] = {"cost": r.cost, **row, "score": f"{float(sc):.4f}",
                               "score_exact": [sc.numerator, sc.denominator]}
            out["instances"][path] = {
                "best_known": self.best_known[path],
                "results": recs,
            }
        for label in self.configs:
            a = self.averages[label]
            out["averages"][label] = {
                "score": f"{float(a):.4f}",
                "score_exact": [a.numerator, a.denominator],
            }
        return out

    def table_text(self) -> str:
        width = max([len(c) for c in self.configs] + [6])
        lines = [f"{'config':<{width}}  avg-score  solved  best"]
        for label in self.configs:
            solved = sum(1 for p in self.instances
                         if self.records[p][label].cost is not None)
            nbest = sum(1 for p in self.instances
                        if self.best_known[p] is not None
                        and self.records[p][label].cost == self.best_known[p])
            lines.append(f"{label:<{width}}  {float(self.averages[label]):9.4f}"
                         f"  {solved:6d}  {nbest:4d}")
        return "\n".join(lines) + "\n"


def config_label(cfg: search.SearchConfig) -> str:
    return f"{cfg.algorithm}/m={cfg.clusters}"


def _run_task(args):
    path, cfg = args
    try:
        f = wcnf.parse_wcnf(Path(path).read_bytes())
    except (OSError, wcnf.WcnfParseError) as e:
        return path, config_label(cfg), search.SearchReport(None, f"parse_error: {e}")
    # the model is dropped: a suite's rows stay as small as their traces
    return path, config_label(cfg), replace(search.solve(f, cfg), best=None)


def load_best_known(path) -> dict[str, int]:
    """Read a sidecar of externally known costs: one `<instance> <cost>`
    pair per line, the cost an int >= 0. A malformed line raises ValueError
    naming its number."""
    out: dict[str, int] = {}
    for num, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name, cost_s = line.rsplit(maxsplit=1)
            out[name] = int(cost_s)
            if out[name] < 0:
                raise ValueError(cost_s)
        except ValueError:
            raise ValueError(f"{path}: line {num}: expected '<instance> <cost>' "
                             f"with a cost >= 0, got {line!r}") from None
    return out


def run_benchmarks(directory, configs, timeout_s: float | None = None,
                   max_conflicts: int | None = None, workers: int = 1,
                   sidecar=None) -> ScoreTable:
    """Run every configuration on every `*.wcnf` file in directory under a
    shared budget.

    Unreadable or malformed instances are recorded as parse failures and
    score 0 for every configuration; the run continues. The sidecar, when
    given, merges externally known costs into the virtual best. A directory
    without any `*.wcnf` file raises ValueError.
    """
    paths = sorted(str(p) for p in Path(directory).glob("*.wcnf"))
    if not paths:
        raise ValueError(f"no *.wcnf instances in {directory}")
    labels = [config_label(c) for c in configs]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate configuration labels")
    sidecar_best = load_best_known(sidecar) if sidecar is not None else {}
    configs = [replace(c, timeout_s=c.timeout_s if timeout_s is None else timeout_s,
                       max_conflicts=(c.max_conflicts if max_conflicts is None
                                      else max_conflicts))
               for c in configs]
    tasks = [(p, c) for p in paths for c in configs]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_task, tasks))
    else:
        done = map(_run_task, tasks)
    results = {(path, label): rec for path, label, rec in done}
    records: dict[str, dict[str, search.SearchReport]] = {}
    best_known: dict[str, int | None] = {}
    scores: dict[str, dict[str, Fraction]] = {}
    for path in paths:
        records[path] = {label: results[(path, label)] for label in labels}
        costs = [r.cost for r in records[path].values() if r.cost is not None]
        name = Path(path).name
        for key in (path, name):
            if key in sidecar_best:
                costs.append(sidecar_best[key])
        best = min(costs) if costs else None
        best_known[path] = best
        scores[path] = {}
        for label in labels:
            found = records[path][label].cost
            scores[path][label] = score(best, found) if best is not None else Fraction(0)
    averages = {label: sum((scores[p][label] for p in paths), Fraction(0)) / len(paths)
                for label in labels}
    return ScoreTable(paths, labels, best_known, records, scores, averages)


def write_report(table: ScoreTable, path) -> None:
    Path(path).write_text(json.dumps(table.to_json_dict(), indent=2) + "\n")
