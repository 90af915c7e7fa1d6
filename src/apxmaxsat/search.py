"""Anytime MaxSAT search.

Both strategies run one linear Sat-Unsat search over the relaxed formula,
with one incremental solver for the whole run. The search walks a list of
objectives, each a weighted sum of relaxation variables:

* apx-weight has one objective, the relaxation variables under the
  clustered weight map. On the true weights (m=0, or m >= #distinct
  weights) the final model is a true optimum, reported as exact.

* apx-subprob has one unit-weight objective per cluster, heaviest cluster
  first: the count of true relaxation variables is minimized cluster by
  cluster. Optimal when the weights are multilevel-dominant (see
  clustering.is_bmo) and m is #distinct weights, yet never reported exact:
  its final UNSAT proves only a lexicographic minimum.

Every objective is bounded with one Generalized Totalizer, built when its
first model is found and capped at that model's value c, the first bound,
which the encoding enforces as it is built. For apx-subprob's unit weights
this is the Totalizer counter capped at the cluster's first count. The
solver branches only on the original and relaxation variables: the
encoder's variables are non-decision variables (see satcore and
encodings), which propagation alone sets from the relaxation variables, so
a model's objective value reads the same whether or not one was left
unset. SearchReport.encoders records each build: its inputs, the clauses
and variables it made, and whether the cap refused it.

No encoding is charged past encodings.MAX_GTE_CLAUSES (see encodings).
When apx-weight's would be, the search falls back to coarser weights, the
paper's own lever: it halves the effective m, the number of clusters in
the partition searched (see clustering.partition), re-partitions,
recomputes c from the current model under the new representatives and
tries again, until the encoding fits. The best model is re-priced under
each new scheme, so its approx_cost and bounds always refer to the same
weights. Where even m=1 does not fit, and for apx-subprob's unit-weight
counters, which have no coarser weights, the search ends with the best
model found. A search that fell back ends satisfiable at best, never
exact: it minimized coarser weights than the configured ones. SearchReport
records the m searched and each fallback.

On a model whose objective value is c, "<= c" is frozen as hard clauses
and the solver is called again assuming the selector of "<= c-1" (see
encodings.GeneralizedTotalizer.at_most). A model found that way lowers c,
and the selector becomes a hard unit, since every later bound is tighter;
unsatisfiability under it means c is the minimum given every earlier
objective's frozen bound, the selector is retired by its negated unit, and
the search moves on to the next objective, starting from the last model.
So no selector is left unassigned after its call. Nothing is rebuilt
between objectives, so learned clauses carry over.

The search fills one SearchReport as it goes: the best model seen by true
cost is recorded in it, and every strict improvement is reported through a
callback before the next solver call. One satcore.Budget, built from the
configured wall-clock limit, conflict limit and stop flag, is passed to
every solver call, so its conflicts are counted across calls; the first
call that finds it exhausted returns UNKNOWN and ends the search with the
best model so far. The encoder polls it too while it builds, and a build it
interrupts ends the search the same way; since every encoding is built
after a first model, that search is satisfiable. It is also checked once
before the solver is loaded, so a budget already spent does not pay for
loading.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

from . import clustering, wcnf
from .encodings import EncodingInterrupted, EncodingTooLarge, GeneralizedTotalizer
from .satcore import Budget, SatSolver, Status

APX_WEIGHT = "apx-weight"
APX_SUBPROB = "apx-subprob"
CLUSTERS_WEIGHTS = "weights"  # sentinel: m = number of distinct weights

OPTIMUM_FOR_APPROXIMATION = "optimum_for_approximation"
SATISFIABLE = "satisfiable"
UNSATISFIABLE = "unsatisfiable"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters, checked once and then immutable.

    clusters is an int (m >= 0 for apx-weight, m >= 1 for apx-subprob) or
    the string "weights" meaning m = number of distinct soft weights; any
    other algorithm or cluster count raises ValueError at construction.
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

    def __post_init__(self):
        if self.algorithm not in (APX_WEIGHT, APX_SUBPROB):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        least = 1 if self.algorithm == APX_SUBPROB else 0
        if self.clusters != CLUSTERS_WEIGHTS and not (
                type(self.clusters) is int and self.clusters >= least):
            raise ValueError(f"{self.algorithm} needs a cluster count >= {least} "
                             f"or {CLUSTERS_WEIGHTS!r}, got {self.clusters!r}")


@dataclass
class EncoderBuild:
    """One bound encoding built, or refused, for an objective: its input
    count, and the clauses and variables it added to the solver (0 when
    refused; so far, when the budget interrupted it)."""

    inputs: int
    clauses: int
    variables: int
    refused: bool = False


@dataclass
class SearchReport:
    """Outcome of one search, filled in as the search runs: best model (or
    None), a status, elapsed wall-clock seconds of the whole search, and the
    improvement trace as (seconds since the search started, true cost) pairs
    with strictly decreasing costs. cost reads the trace's last cost, so it
    stays right on a report whose model was dropped. bounds holds each
    objective's last bound in processing order (None before its first
    model). exact says the best model is a proven optimum: apx-weight
    searched to the end on the true weights. clusters is the m searched
    last: the resolved m (see resolve_clusters), also on an instance without
    soft clauses, until a fallback retries a smaller one; None on a report
    no search filled. fallbacks lists, in order, each m whose encoding was
    over the cap with the m retried after it, None where the search stopped
    instead. encoders lists every encoder build in order (see
    EncoderBuild). solver_stats is a copy of the solver's final stats
    (conflicts, decisions, propagations, restarts, reductions), empty when
    no solver was built."""

    best: wcnf.Model | None
    status: str
    elapsed: float = 0.0
    trace: list[tuple[float, int]] = field(default_factory=list)
    bounds: list[int | None] = field(default_factory=list)
    exact: bool = False
    clusters: int | None = None
    fallbacks: list[tuple[int, int | None]] = field(default_factory=list)
    encoders: list[EncoderBuild] = field(default_factory=list)
    solver_stats: dict[str, int] = field(default_factory=dict)

    @property
    def cost(self) -> int | None:
        """True cost of the best model, None when there is none."""
        return self.trace[-1][1] if self.trace else None


def resolve_clusters(f: wcnf.WcnfFormula, clusters: int | str) -> int:
    """Map a cluster-count setting to a concrete m."""
    if clusters == CLUSTERS_WEIGHTS:
        return clustering.distinct_weight_count(f)
    return clusters


def check_hard(f: wcnf.WcnfFormula, timeout_s: float | None = None,
               max_conflicts: int | None = None, seed: int = 0):
    """Solve the hard clauses alone. Returns (Status, model or None)."""
    solver = SatSolver(f.num_vars, seed=seed)
    for c in f.hard:
        solver.add_clause(c.lits)
    return solver.solve(budget=Budget(timeout_s, max_conflicts))


def solve(f: wcnf.WcnfFormula, cfg: SearchConfig, on_improve=None) -> SearchReport:
    """Run the configured strategy as one linear Sat-Unsat search.

    With apx-weight the final bound is the minimum approximated cost; the
    best model by true cost is returned, which is a true optimum (exact)
    only when the approximated weights equal the true ones. With
    apx-subprob each cluster's frozen count is minimal given the heavier
    clusters' counts; the result is never claimed exact.
    """
    started = time.monotonic()
    weighted = cfg.algorithm == APX_WEIGHT
    m = resolve_clusters(f, cfg.clusters)
    part, scheme = clustering.partition(f, m)
    relax_of = wcnf.relax(f)
    if weighted:
        objectives = [list(zip(relax_of, scheme.weight_m))]
    else:  # clusters ascend in weight, so their representatives do too
        objectives = [[(relax_of[i], 1) for i in cluster]
                      for cluster in reversed(part.clusters)]
    report = SearchReport(None, UNKNOWN, bounds=[None] * len(objectives))
    budget = Budget(cfg.timeout_s, cfg.max_conflicts, cfg.stop)
    solver = None

    def offer(full_assignment) -> None:
        # keep a model of strictly lower true cost, priced under the
        # approximated weights searched now
        assign = {v: full_assignment[v] for v in range(1, f.num_vars + 1)}
        tc = wcnf.cost(f, assign)
        if report.best is None or tc < report.best.true_cost:
            ac = wcnf.cost(f, assign, weights=scheme.weight_m)
            report.best = wcnf.Model(assign, tc, ac)
            report.trace.append((time.monotonic() - started, tc))
            if on_improve is not None:
                on_improve(report.best)

    def finish(status: str) -> SearchReport:
        # m and scheme are those searched, after any fallback
        report.status = status
        report.clusters = m
        report.exact = (weighted and scheme.weight_m == scheme.weight
                        and status == OPTIMUM_FOR_APPROXIMATION)
        report.elapsed = time.monotonic() - started
        if solver is not None:
            report.solver_stats = dict(solver.stats)
        return report

    if budget.exhausted():
        return finish(UNKNOWN)
    solver = SatSolver(f.num_vars + len(relax_of), seed=cfg.seed)
    for clause in f.hard:
        solver.add_clause(clause.lits)
    for (clause, _), r in zip(f.soft, relax_of):
        solver.add_clause(clause.lits + (r,))
    st, model = solver.solve(budget=budget)
    if st is Status.UNSAT:
        return finish(UNSATISFIABLE)
    if st is Status.UNKNOWN:
        return finish(UNKNOWN)
    offer(model)
    for j, items in enumerate(objectives):
        enc = None
        while True:
            c = sum(w for r, w in items if model[r])
            report.bounds[j] = c
            if c == 0:
                for r, _ in items:
                    solver.add_clause([-r])
                break
            if enc is None:
                vars_before = solver.num_vars
                try:
                    enc = GeneralizedTotalizer(items, c, solver, budget=budget)
                except EncodingInterrupted as e:
                    report.encoders.append(EncoderBuild(
                        len(items), e.clauses, solver.num_vars - vars_before))
                    return finish(SATISFIABLE)
                except EncodingTooLarge:
                    report.encoders.append(EncoderBuild(len(items), 0, 0, True))
                    refused = len(part.clusters)
                    # unit-weight counters have no coarser weights to fall to
                    if not weighted or refused == 1:
                        report.fallbacks.append((refused, None))
                        return finish(SATISFIABLE)
                    m = refused // 2
                    report.fallbacks.append((refused, m))
                    part, scheme = clustering.partition(f, m)
                    items = list(zip(relax_of, scheme.weight_m))
                    # a new Model: the one on_improve was given keeps its price
                    report.best = replace(report.best, approx_cost=wcnf.cost(
                        f, report.best.assignment, weights=scheme.weight_m))
                    continue
                report.encoders.append(EncoderBuild(
                    len(items), enc.clauses, solver.num_vars - vars_before))
            enc.set_bound(c, solver)
            below = enc.at_most(c - 1, solver)
            st, found = solver.solve([below], budget)
            solver.add_clause([below if st is Status.SAT else -below])
            if st is Status.UNKNOWN:
                return finish(SATISFIABLE)  # best holds the first model at least
            if st is Status.UNSAT:
                break
            model = found
            offer(model)
    # after a fallback the minimum proven is that of coarser clusters than
    # the ones asked for
    return finish(SATISFIABLE if report.fallbacks else OPTIMUM_FOR_APPROXIMATION)
