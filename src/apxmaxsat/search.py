"""Anytime MaxSAT search.

Both strategies run one linear Sat-Unsat search over the relaxed formula,
with one incremental solver for the whole run. The search walks a list of
objectives, each a weighted sum of relaxation variables:

* apx-weight has one objective, the relaxation variables under the
  clustered weight map. With m=0 the weight map is exact and the final
  model is a true optimum.

* apx-subprob has one unit-weight objective per cluster, heaviest
  representative weight first: the count of true relaxation variables is
  minimized cluster by cluster. Exact when the weight structure is
  multilevel-dominant (see clustering.is_bmo) and m equals the number of
  distinct weights.

Every objective is bounded with one Generalized Totalizer, built when its
first model is found and capped at that model's value c, the first bound
asserted. For apx-subprob's unit weights this is the Totalizer counter
capped at the cluster's first count.

On a model whose objective value is c, "<= c" is frozen as hard clauses
and the solver is called again assuming "<= c-1". A model found that way
lowers c; unsatisfiability under the assumption means c is the minimum
given every earlier objective's frozen bound, and the search moves on to
the next objective, starting from the last model. Nothing is rebuilt
between objectives, so learned clauses carry over.

The best model seen by true cost is recorded, and every strict improvement
is reported through a callback before the next solver call. One
satcore.Budget, built from the configured wall-clock limit, conflict limit
and stop flag, is passed to every solver call, so its conflicts are counted
across calls; the first call that finds it exhausted returns UNKNOWN and
ends the search with the best model so far. It is also checked once before
the solver is loaded, so a budget already spent does not pay for loading.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

from . import clustering, wcnf
from .encodings import GeneralizedTotalizer
from .satcore import Budget, SatSolver, Status

APX_WEIGHT = "apx-weight"
APX_SUBPROB = "apx-subprob"
CLUSTERS_WEIGHTS = "weights"  # sentinel: m = number of distinct weights

OPTIMUM_FOR_APPROXIMATION = "optimum_for_approximation"
SATISFIABLE = "satisfiable"
UNSATISFIABLE = "unsatisfiable"
UNKNOWN = "unknown"


@dataclass
class SearchConfig:
    """Search parameters.

    clusters is an int (m >= 0 for apx-weight, m >= 1 for apx-subprob) or
    the string "weights" meaning m = number of distinct soft weights.
    timeout_s is a wall-clock budget; max_conflicts a deterministic
    alternative counted across all solver calls of one search. stop is an
    optional zero-argument callable polled cooperatively.
    """

    algorithm: str = APX_SUBPROB
    clusters: int | str = CLUSTERS_WEIGHTS
    timeout_s: float | None = None
    max_conflicts: int | None = None
    seed: int = 0
    stop: Callable[[], bool] | None = None


@dataclass
class SearchReport:
    """Outcome of one search: best model (or None), a status, and the
    improvement trace as (elapsed seconds, true cost) pairs with strictly
    decreasing costs. mu is the final pseudo-Boolean bound target of
    apx-weight; cluster_mu lists (cluster index, frozen bound) in processing
    order for apx-subprob."""

    best: wcnf.Model | None
    status: str
    trace: list[tuple[float, int]] = field(default_factory=list)
    mu: int | None = None
    cluster_mu: list[tuple[int, int | None]] | None = None


def resolve_clusters(f: wcnf.WcnfFormula, clusters: int | str) -> int:
    """Map a cluster-count setting to a concrete m."""
    if clusters == CLUSTERS_WEIGHTS:
        return clustering.distinct_weight_count(f)
    m = int(clusters)
    if m < 0:
        raise ValueError("cluster count must be >= 0")
    return m


def check_hard(f: wcnf.WcnfFormula, timeout_s: float | None = None,
               max_conflicts: int | None = None, seed: int = 0):
    """Solve the hard clauses alone. Returns (Status, model or None)."""
    solver = SatSolver(f.num_vars, seed=seed)
    for c in f.hard:
        solver.add_clause(c.lits)
    return solver.solve(budget=Budget(timeout_s, max_conflicts))


class _Best:
    """Best-model bookkeeping: update on strictly decreasing true cost,
    fire the improvement callback, and keep the trace."""

    def __init__(self, f, scheme, on_improve, started):
        self.f = f
        self.scheme = scheme
        self.on_improve = on_improve
        self.started = started
        self.model: wcnf.Model | None = None
        self.cost = wcnf.INF_COST
        self.trace: list[tuple[float, int]] = []

    def offer(self, full_assignment) -> None:
        assign = {v: full_assignment[v] for v in range(1, self.f.num_vars + 1)}
        tc = wcnf.cost(self.f, assign)
        if tc < self.cost:
            ac = wcnf.cost(self.f, assign, weights=self.scheme.weight_m)
            self.cost = tc
            self.model = wcnf.Model(assign, tc, ac)
            self.trace.append((time.monotonic() - self.started, tc))
            if self.on_improve is not None:
                self.on_improve(self.model)

    def interrupted_status(self) -> str:
        return SATISFIABLE if self.model is not None else UNKNOWN


def solve(f: wcnf.WcnfFormula, cfg: SearchConfig, on_improve=None) -> SearchReport:
    """Run the configured strategy as one linear Sat-Unsat search.

    With apx-weight the final mu is the minimum approximated cost; the
    best model by true cost is returned, which for m >= 1 is not
    necessarily a true optimum. With apx-subprob each cluster's frozen
    count is minimal given the heavier clusters' counts; the result is not
    guaranteed globally optimal.
    """
    started = time.monotonic()
    weighted = cfg.algorithm == APX_WEIGHT
    if not weighted and cfg.algorithm != APX_SUBPROB:
        raise ValueError(f"unknown algorithm {cfg.algorithm!r}")
    m = resolve_clusters(f, cfg.clusters)
    if not f.soft:
        m = 0  # nothing to cluster; apx-subprob gets no objectives
    elif not weighted and m < 1:
        raise ValueError("apx-subprob needs at least one cluster")
    part, scheme = clustering.partition(f, m)
    relax_of = wcnf.relax(f)
    if weighted:
        objectives = [list(zip(relax_of, scheme.weight_m))]
    else:
        order = sorted(range(len(part.clusters)),
                       key=lambda ci: (-scheme.rep[ci], ci))
        objectives = [[(relax_of[i], 1) for i in part.clusters[ci]]
                      for ci in order]
    bounds: list[int | None] = [None] * len(objectives)
    best = _Best(f, scheme, on_improve, started)
    budget = Budget(cfg.timeout_s, cfg.max_conflicts, cfg.stop)

    def report(status: str) -> SearchReport:
        if weighted:
            return SearchReport(best.model, status, best.trace, mu=bounds[0])
        return SearchReport(best.model, status, best.trace,
                            cluster_mu=list(zip(order, bounds)))

    if budget.exhausted():
        return report(UNKNOWN)
    solver = SatSolver(f.num_vars + len(relax_of), seed=cfg.seed)
    for clause in f.hard:
        solver.add_clause(clause.lits)
    for (clause, _), r in zip(f.soft, relax_of):
        solver.add_clause(clause.lits + (r,))
    st, model = solver.solve(budget=budget)
    if st is Status.UNSAT:
        return SearchReport(None, UNSATISFIABLE, [])
    if st is Status.UNKNOWN:
        return report(UNKNOWN)
    best.offer(model)
    for j, items in enumerate(objectives):
        enc = None
        while True:
            c = sum(w for r, w in items if model[r])
            bounds[j] = c
            if c == 0:
                for r, _ in items:
                    solver.add_clause([-r])
                break
            if enc is None:
                enc = GeneralizedTotalizer(items, c, solver)
            enc.set_bound(c, solver)
            # with "<= c" frozen, the negated root output for sum c is "<= c-1"
            at_c = enc.sums[bisect_left(enc.sums, (c,))][1]
            st, found = solver.solve([-at_c], budget)
            if st is Status.UNKNOWN:
                return report(best.interrupted_status())
            if st is Status.UNSAT:
                break
            model = found
            best.offer(model)
    return report(OPTIMUM_FOR_APPROXIMATION)
