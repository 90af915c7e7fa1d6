"""Soft-clause weight clustering.

Soft clauses are sorted by weight and cut at the m-1 largest consecutive
weight gaps, yielding m clusters of similar weights. Every clause in a
cluster is then assigned the cluster's representative weight (the rounded
arithmetic mean), producing an approximated weight map with at most m
distinct values. m=0 takes every gap, one cluster per distinct weight, so
the approximated map equals the original. Also provides the
multilevel-dominance check used to recognize instances where greedy
per-cluster minimization is exact.

All functions are pure; results are immutable and shareable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .wcnf import WcnfFormula


@dataclass(frozen=True)
class Partition:
    """Ordered clusters of soft-clause indices.

    Clusters are ascending in weight: every clause in clusters[j] weighs at
    most every clause in clusters[j+1]. len(clusters) is the effective
    count: min(m, #distinct weights) for m >= 1, #distinct weights for m=0.
    """

    clusters: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class WeightScheme:
    """Original and approximated weights, per soft index and per cluster.

    weight_m is constant on each cluster and equals that cluster's rep
    entry, so rep ascends with the clusters. With m=0 (or m >= #distinct
    weights) every cluster holds one weight: rep lists the distinct weights
    and weight_m equals weight pointwise.
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
    lower position; zero gaps are never chosen, so the effective count
    len(clusters) is min(m, #distinct weights), and at #distinct weights
    weight_m == weight. m=0 takes every positive gap: one cluster per
    distinct weight, the true weights. Without soft clauses the partition
    is empty for every m.
    """
    if m < 0:
        raise ValueError("cluster count must be >= 0")
    weights = [w for _, w in f.soft]
    n = len(weights)
    order = sorted(range(n), key=lambda i: (weights[i], i))
    sorted_w = [weights[i] for i in order]
    gaps = [(sorted_w[k + 1] - sorted_w[k], k + 1) for k in range(n - 1)
            if sorted_w[k + 1] > sorted_w[k]]
    gaps.sort(key=lambda t: (-t[0], t[1]))
    # a cut at p starts a cluster at sorted position p; m=0 asks for as many
    # clusters as there are soft clauses
    cuts = sorted({0, n} | {p for _, p in gaps[:(m or n) - 1]})
    clusters = tuple(tuple(order[a:b]) for a, b in zip(cuts, cuts[1:]))
    rep = tuple(representative_weight(weights[i] for i in cl) for cl in clusters)
    weight_m = [0] * n
    for r, cl in zip(rep, clusters):
        for i in cl:
            weight_m[i] = r
    return Partition(clusters), WeightScheme(tuple(weights), tuple(weight_m), rep)


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
