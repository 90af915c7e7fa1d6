"""Soft-clause weight clustering.

Soft clauses are sorted by weight and cut at the m-1 largest consecutive
weight gaps, yielding m clusters of similar weights. Every clause in a
cluster is then assigned the cluster's representative weight (the rounded
arithmetic mean), producing an approximated weight map with at most m
distinct values. m=0 means no clustering: the approximated map equals the
original. Also provides the multilevel-dominance check used to recognize
instances where greedy per-cluster minimization is exact.

All functions are pure; results are immutable and shareable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .wcnf import WcnfFormula


@dataclass(frozen=True)
class Partition:
    """Ordered clusters of soft-clause indices.

    Clusters are ascending in weight: every clause in clusters[j] weighs at
    most every clause in clusters[j+1]. boundaries holds the chosen gap
    positions in the weight-sorted order (a boundary at p splits sorted
    positions p and p+1). m is the requested cluster count; the effective
    count len(clusters) never exceeds min(m, #distinct weights) for m >= 1.
    """

    clusters: tuple[tuple[int, ...], ...]
    m: int
    boundaries: tuple[int, ...]


@dataclass(frozen=True)
class WeightScheme:
    """Original and approximated weights, per soft index and per cluster.

    weight_m is constant on each cluster and equals that cluster's rep
    entry; with m=0 (or m >= #distinct weights) it equals weight pointwise,
    and rep is empty for m=0 since no substitution happens.
    """

    weight: tuple[int, ...]
    weight_m: tuple[int, ...]
    rep: tuple[int, ...]


def representative_weight(weights) -> int:
    """Arithmetic mean rounded half-up, floored at 1."""
    ws = list(weights)
    if not ws:
        raise ValueError("empty weight multiset")
    n = len(ws)
    return max(1, (2 * sum(ws) + n) // (2 * n))


def distinct_weight_count(f: WcnfFormula) -> int:
    """Number of distinct soft-clause weights."""
    return len({w for _, w in f.soft})


def partition(f: WcnfFormula, m: int) -> tuple[Partition, WeightScheme]:
    """Split soft clauses at the m-1 largest weight gaps and substitute
    representative weights.

    The sort is stable with the soft index as tiebreak. Gap ties prefer the
    lower position; zero gaps are never chosen, so requesting more clusters
    than there are distinct weights shrinks the effective count (and leaves
    weight_m == weight). m=0 performs no clustering: one cluster holds
    everything and weight_m == weight.
    """
    if m < 0:
        raise ValueError("cluster count must be >= 0")
    weights = [w for _, w in f.soft]
    n = len(weights)
    if m == 0:
        clusters: tuple[tuple[int, ...], ...]
        if n:
            order = sorted(range(n), key=lambda i: (weights[i], i))
            clusters = (tuple(order),)
        else:
            clusters = ()
        scheme = WeightScheme(tuple(weights), tuple(weights), ())
        return Partition(clusters, 0, ()), scheme
    if n == 0:
        raise ValueError("m >= 1 requires at least one soft clause")
    order = sorted(range(n), key=lambda i: (weights[i], i))
    sorted_w = [weights[i] for i in order]
    gaps = [(sorted_w[k + 1] - sorted_w[k], k) for k in range(n - 1)]
    positive = [(d, k) for d, k in gaps if d > 0]
    positive.sort(key=lambda t: (-t[0], t[1]))
    chosen = sorted(k for _, k in positive[: m - 1])
    built: list[tuple[int, ...]] = []
    start = 0
    for b in chosen:
        built.append(tuple(order[start: b + 1]))
        start = b + 1
    built.append(tuple(order[start:]))
    rep = tuple(representative_weight(weights[i] for i in cl) for cl in built)
    weight_m = [0] * n
    for ci, cl in enumerate(built):
        for i in cl:
            weight_m[i] = rep[ci]
    scheme = WeightScheme(tuple(weights), tuple(weight_m), rep)
    return Partition(tuple(built), m, tuple(chosen)), scheme


def is_bmo(f: WcnfFormula, p: Partition) -> bool:
    """True when every cluster's minimum weight exceeds the total weight of
    all clusters below it (taking clusters in descending minimum-weight
    order). Under this condition greedy per-cluster minimization from the
    heaviest cluster down is globally optimal."""
    weights = [w for _, w in f.soft]
    stats = []
    for ci, cl in enumerate(p.clusters):
        ws = [weights[i] for i in cl]
        stats.append((min(ws), sum(ws), ci))
    stats.sort(key=lambda t: (-t[0], t[2]))
    below = sum(t[1] for t in stats)
    for mn, total, _ in stats:
        below -= total
        if not mn > below:
            return False
    return True
