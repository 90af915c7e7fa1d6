"""Anytime MaxSAT search.

Both strategies run one linear Sat-Unsat search over the relaxed formula,
with one incremental solver for the whole run. The search walks a list of
objectives, each a weighted sum of objective literals, one per soft clause
and true when it is violated: a soft unit (l) is counted through -l, as in
RC2 (Ignatiev, Morgado and Marques-Silva, JSAT 2019), and adds nothing to
the solver (see wcnf.relax for the units that share a variable):

* apx-weight has one objective, the objective literals under the
  clustered weight map. On the true weights (m=0, or m >= #distinct
  weights) the final model is a true optimum, reported as exact.

* apx-subprob has one unit-weight objective per cluster, heaviest cluster
  first: the count of true objective literals is minimized cluster by
  cluster. Optimal when the weights are multilevel-dominant (see
  clustering.is_bmo) and m is #distinct weights, yet never reported exact:
  its final UNSAT proves only a lexicographic minimum.

Every objective is bounded with one Generalized Totalizer, built when its
first model is found and capped at that model's value c, the first bound,
which the encoding enforces as it is built. For apx-subprob's unit weights
this is the Totalizer counter capped at the cluster's first count. The
solver branches only on the original and relaxation variables: the
encoder's variables are non-decision variables (see satcore and
encodings), which propagation alone sets from the objective literals, so
a model's objective value reads the same whether or not one was left
unset. SearchReport.encoders records each build: its inputs, the clauses
and variables it made, and whether the cap refused it. The search sizes an
encoding with encodings.plan_gte and builds it from that plan, so an
encoding is sized once unless the floored stage below runs.

A big exact encoding is warm-started from floored weights (varying
resolution, as in Joshi, Kumar, Rao and Martins, JSAT 2019). When
apx-weight searches the true weights and its GTE at the first bound is
charged more than WARM_CHARGE yet fits the cap, a floored stage runs
first: it minimizes the weights w >> k, with k = (largest
weight).bit_length() - 3, so floored weights lie in 0..7 and the inputs
floored to 0 are dropped. A floored bound is no bound on the true
objective, so the stage's GTE is built with a guard literal (see
encodings): each of its SAT calls assumes the guard beside the step's
selector, and once the stage ends the unit [-guard] retires every clause
that forbids a floored sum, so no clause it added or the solver learned
cuts off a model of the true objective. The exact GTE is then built at the
best model's true cost, usually far below the first bound, and the search
descends to the same final UNSAT as without the stage, so the answer is
the same proven optimum. SearchReport.warm holds (k, first floored cost,
last floored cost), or None when no stage ran; its floored build is
logged in encoders before the exact one. WARM_CHARGE was set against the
clauses the exact build emits at its first bound (its charge; see
encodings) on the benchmark's instance families, perfbench seeds 1-3
(batches 0-2) and 201-203:

    family                            clauses       floored stage
    fidelity-sweep                    15.3k-22.6k   yes
    wide-weights-cli, 19 units        4.11k-4.24k   yes
    planted-large                     2.4k-4.2k     yes
    wide-weights-cli, 12-14 units     334-695       no
    perfbench's tracer test instance  133           no

At 1 << 13 only fidelity-sweep would take the stage, and the 19-unit
exact encoding, built at once, solves in 0.036-0.044 s against
0.028-0.029 s with the stage (seeds 201-203, in one process on a 2-vCPU
VM). With no threshold every small exact build pays for a second one,
and perfbench's tracer test, which expects one build, fails.

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
from .encodings import (EncodingInterrupted, EncodingTooLarge, GeneralizedTotalizer,
                        plan_gte)
from .satcore import Budget, SatSolver, Status

APX_WEIGHT = "apx-weight"
APX_SUBPROB = "apx-subprob"
CLUSTERS_WEIGHTS = "weights"  # sentinel: m = number of distinct weights

# an exact build charged more than this is warm-started (see the module docstring)
WARM_CHARGE = 1 << 10

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
    count, and the clauses and variables it added to the solver, read from
    the solver's own counts (0 when refused or interrupted while sized; so
    far, when the budget interrupted the build)."""

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
    EncoderBuild). warm is (k, first, last) when the floored stage ran: the
    shift k and the floored cost of its first and last model (see the
    module docstring); None otherwise. solver_stats is a copy of the
    solver's final stats (conflicts, decisions, propagations, restarts,
    reductions), empty when no solver was built."""

    best: wcnf.Model | None
    status: str
    elapsed: float = 0.0
    trace: list[tuple[float, int]] = field(default_factory=list)
    bounds: list[int | None] = field(default_factory=list)
    exact: bool = False
    clusters: int | None = None
    fallbacks: list[tuple[int, int | None]] = field(default_factory=list)
    encoders: list[EncoderBuild] = field(default_factory=list)
    warm: tuple[int, int, int] | None = None
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


def holds(model: dict[int, bool], lit: int) -> bool:
    """Whether lit is true in a solver model."""
    return model[abs(lit)] == (lit > 0)


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
    lits = wcnf.relax(f)
    if weighted:
        objectives = [list(zip(lits, scheme.weight_m))]
    else:  # clusters ascend in weight, so their representatives do too
        objectives = [[(lits[i], 1) for i in cluster]
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
    solver = SatSolver(max((f.num_vars, *lits)), seed=cfg.seed)
    for clause in f.hard:
        solver.add_clause(clause.lits)
    for (clause, _), r in zip(f.soft, lits):
        if r > f.num_vars:  # a relaxation variable, not a soft unit's own literal
            solver.add_clause(clause.lits + (r,))
    st, model = solver.solve(budget=budget)
    if st is Status.UNSAT:
        return finish(UNSATISFIABLE)
    if st is Status.UNKNOWN:
        return finish(UNKNOWN)
    offer(model)

    def build(items, bound, plan, guard=None):
        """The planned GTE over items, built into the solver and logged in
        report.encoders, also when the budget interrupts the build
        (EncodingInterrupted)."""
        vars_before, clauses_before = solver.num_vars, solver.clauses_added
        try:
            return GeneralizedTotalizer(items, bound, solver, budget=budget,
                                        plan=plan, guard=guard)
        finally:
            report.encoders.append(EncoderBuild(
                len(items), solver.clauses_added - clauses_before,
                solver.num_vars - vars_before))

    def sized(items, bound):
        """plan_gte(items, bound); a sizing the budget interrupts is logged
        as a build that made nothing before EncodingInterrupted goes on.
        Raises EncodingTooLarge."""
        try:
            return plan_gte(items, bound, budget)
        except EncodingInterrupted:
            report.encoders.append(EncoderBuild(len(items), 0, 0))
            raise

    def descend(enc, items, c, assume):
        """Lower c, the value of items in the current model, one SAT call
        per step under the assumed literals and the step's selector, until a
        call proves c minimal (UNSAT) or the budget runs out (UNKNOWN).
        Returns that status and the last c; c = 0 is minimal without a
        call. Each step's model is offered and becomes the current one."""
        nonlocal model
        while c:
            enc.set_bound(c, solver)
            below = enc.at_most(c - 1, solver)
            st, found = solver.solve(assume + [below], budget)
            solver.add_clause([below if st is Status.SAT else -below])
            if st is not Status.SAT:
                return st, c
            model = found
            offer(model)
            c = sum(w for lit, w in items if holds(model, lit))
        return Status.UNSAT, 0

    def warm_up(items, k) -> bool:
        """The floored stage: minimize items under weights w >> k, dropping
        the inputs floored to 0, with every clause that forbids a floored sum
        guarded by a fresh literal assumed beside each step's selector and
        retired by its negated unit afterwards. False when the budget ran
        out in its descent; a floored encoding over the cap is skipped."""
        floored = [(lit, w >> k) for lit, w in items if w >> k]
        first = sum(w for lit, w in floored if holds(model, lit))
        if not first:
            report.warm = (k, 0, 0)
            return True
        try:
            plan = sized(floored, first)
        except EncodingTooLarge:
            return True  # the exact stage alone, as without the stage
        report.warm = (k, first, first)
        guard = solver.new_var(decision=False)
        enc = build(floored, first, plan, guard)
        st, last = descend(enc, floored, first, [guard])
        report.warm = (k, first, last)
        if st is Status.UNKNOWN:
            return False
        solver.add_clause([-guard])
        return True

    try:
        for j, items in enumerate(objectives):
            c = sum(w for lit, w in items if holds(model, lit))
            warmed = False  # the floored stage runs once, before the exact build
            enc = None
            while c and enc is None:
                report.bounds[j] = c
                try:
                    plan = sized(items, c)
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
                    items = list(zip(lits, scheme.weight_m))
                    # a new Model: the one on_improve was given keeps its price
                    report.best = replace(report.best, approx_cost=wcnf.cost(
                        f, report.best.assignment, weights=scheme.weight_m))
                    c = sum(w for lit, w in items if holds(model, lit))
                    continue
                if (not warmed and weighted and scheme.weight_m == scheme.weight
                        and plan.charge > WARM_CHARGE
                        and (k := max(w for _, w in items).bit_length() - 3) > 0):
                    warmed = True
                    if not warm_up(items, k):
                        return finish(SATISFIABLE)
                    c = report.best.true_cost  # a model's true cost is its least value
                    continue
                enc = build(items, c, plan)
            st, c = descend(enc, items, c, [])  # with c = 0 there is no enc
            report.bounds[j] = c
            if st is Status.UNKNOWN:
                return finish(SATISFIABLE)
            if not c:
                for lit, _ in items:
                    solver.add_clause([-lit])
    except EncodingInterrupted:
        return finish(SATISFIABLE)  # best holds the first model at least
    # after a fallback the minimum proven is that of coarser clusters than
    # the ones asked for
    return finish(SATISFIABLE if report.fallbacks else OPTIMUM_FOR_APPROXIMATION)
