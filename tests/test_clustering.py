import pytest
from hypothesis import given
import hypothesis.strategies as st

from apxmaxsat.clustering import (distinct_weight_count, is_bmo, partition,
                                  representative_weight)
from apxmaxsat.wcnf import Clause, WcnfFormula


def formula_with_weights(weights, num_vars=None):
    n = num_vars or max(len(weights), 1)
    soft = [(Clause.of([(i % n) + 1]), w) for i, w in enumerate(weights)]
    return WcnfFormula(n, [], soft)


# ----------------------------------------------------------------------
# representative weight

def test_representative_weight_half_up():
    assert representative_weight([100, 101]) == 101
    assert representative_weight([7]) == 7
    assert representative_weight([1, 1, 2, 5]) == 2


def test_representative_weight_empty_rejected():
    with pytest.raises(ValueError):
        representative_weight([])


# ----------------------------------------------------------------------
# distinct weights

@pytest.mark.parametrize("weights,expected", [
    ([1, 5, 5, 9], 3),
    ([], 0),
    ([4, 4, 4], 1),
])
def test_distinct_weight_count(weights, expected):
    assert distinct_weight_count(formula_with_weights(weights)) == expected


# ----------------------------------------------------------------------
# partitioning

def cluster_weightsets(f, p):
    ws = f.soft_weights
    return [sorted(ws[i] for i in cl) for cl in p.clusters]


def test_partition_largest_gap():
    f = formula_with_weights([1, 1, 2, 5, 100, 101])
    p, scheme = partition(f, 2)
    assert cluster_weightsets(f, p) == [[1, 1, 2, 5], [100, 101]]
    assert scheme.rep == (2, 101)
    assert scheme.weight_m == (2, 2, 2, 2, 101, 101)


def test_partition_m_equals_distinct_is_identity():
    f = formula_with_weights([1, 5, 5, 9])
    p, scheme = partition(f, 3)
    assert cluster_weightsets(f, p) == [[1], [5, 5], [9]]
    assert scheme.weight_m == scheme.weight


def test_partition_m0_is_identity():
    f = formula_with_weights([9, 3, 7, 3])
    p, scheme = partition(f, 0)
    assert scheme.weight_m == scheme.weight == (9, 3, 7, 3)
    assert cluster_weightsets(f, p) == [[3, 3], [7], [9]]
    assert scheme.rep == (3, 7, 9)


def test_partition_m0_empty_soft():
    p, scheme = partition(formula_with_weights([]), 0)
    assert p.clusters == () and scheme.weight_m == ()


def test_partition_rejects_negative_m():
    with pytest.raises(ValueError):
        partition(formula_with_weights([1]), -1)


def test_partition_m_exceeding_distinct_shrinks():
    f = formula_with_weights([4, 4, 9, 9])
    p, scheme = partition(f, 5)
    assert cluster_weightsets(f, p) == [[4, 4], [9, 9]]
    assert scheme.weight_m == scheme.weight


def test_partition_gap_ties_prefer_lower_index():
    # gaps: 4 (after sorted pos 0) and 4 (after pos 2); m=2 picks the first
    f = formula_with_weights([1, 5, 5, 9])
    p, _ = partition(f, 2)
    assert cluster_weightsets(f, p) == [[1], [5, 5, 9]]


def test_partition_e1_single_cluster_rep():
    f = formula_with_weights([3, 2])
    _, scheme = partition(f, 1)
    assert scheme.rep == (3,)
    assert scheme.weight_m == (3, 3)


# ----------------------------------------------------------------------
# multilevel dominance

def two_cluster_partition(f, sizes):
    idx = iter(range(len(f.soft)))
    clusters = tuple(tuple(next(idx) for _ in range(s)) for s in sizes)
    from apxmaxsat.clustering import Partition
    return Partition(clusters)


def test_is_bmo_cases():
    f = formula_with_weights([100, 1, 1])
    assert is_bmo(f, two_cluster_partition(f, [1, 2])) is True
    g = formula_with_weights([3, 2, 2])
    assert is_bmo(g, two_cluster_partition(g, [1, 2])) is False
    h = formula_with_weights([5, 5])
    assert is_bmo(h, two_cluster_partition(h, [2])) is True


# ----------------------------------------------------------------------
# properties

weights_lists = st.lists(st.integers(1, 40), min_size=1, max_size=14)


@given(weights_lists, st.integers(1, 6))
def test_partition_axioms(weights, m):
    f = formula_with_weights(weights)
    p, scheme = partition(f, m)
    flat = [i for cl in p.clusters for i in cl]
    assert sorted(flat) == list(range(len(weights)))       # disjoint cover
    assert all(p.clusters)                                  # nonempty
    for a, b in zip(p.clusters, p.clusters[1:]):            # weight-ordered
        assert max(weights[i] for i in a) <= min(weights[i] for i in b)
    assert len(p.clusters) <= min(m, len(set(weights)))
    for ci, cl in enumerate(p.clusters):                    # constant weight_m
        assert {scheme.weight_m[i] for i in cl} == {scheme.rep[ci]}


@given(weights_lists, st.integers(1, 6))
def test_partition_idempotent_on_approximated_weights(weights, m):
    f = formula_with_weights(weights)
    _, scheme = partition(f, m)
    f2 = formula_with_weights(list(scheme.weight_m))
    _, scheme2 = partition(f2, m)
    assert scheme2.weight_m == scheme.weight_m
    assert sorted(scheme2.rep) == sorted(set(scheme.rep))


@given(weights_lists, st.integers(0, 6))
def test_partition_fidelity_bound(weights, m):
    f = formula_with_weights(weights)
    p, scheme = partition(f, m)
    for cl in p.clusters:
        ws = [weights[i] for i in cl]
        spread = max(ws) - min(ws)
        for i in cl:
            assert abs(scheme.weight_m[i] - weights[i]) <= spread
    if m >= len(set(weights)) and m >= 1:
        assert scheme.weight_m == scheme.weight


@given(st.lists(st.integers(1, 40), max_size=14), st.integers(0, 6))
def test_partition_count_is_effective_and_m0_is_every_weight(weights, m):
    f = formula_with_weights(weights)
    distinct = distinct_weight_count(f)
    assert len(partition(f, m)[0].clusters) == (min(m, distinct) if m else distinct)
    assert partition(f, 0) == partition(f, distinct)


@given(weights_lists, st.integers(1, 6), st.randoms(use_true_random=False))
def test_partition_stable_under_input_permutation(weights, m, rng):
    f = formula_with_weights(weights)
    p, _ = partition(f, m)
    shuffled = list(weights)
    rng.shuffle(shuffled)
    f2 = formula_with_weights(shuffled)
    p2, _ = partition(f2, m)
    a = sorted(tuple(sorted(weights[i] for i in cl)) for cl in p.clusters)
    b = sorted(tuple(sorted(shuffled[i] for i in cl)) for cl in p2.clusters)
    assert a == b
