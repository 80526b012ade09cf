"""Transformation semantics: every operator against its Python equivalent."""

import pytest

from tests.conftest import build_on_demand_context


@pytest.fixture
def ctx():
    return build_on_demand_context(4)


def test_map(ctx):
    assert ctx.parallelize([1, 2, 3], 2).map(lambda x: x * 10).collect() == [10, 20, 30]


def test_filter(ctx):
    rdd = ctx.parallelize(list(range(20)), 4).filter(lambda x: x % 3 == 0)
    assert rdd.collect() == [x for x in range(20) if x % 3 == 0]


def test_flat_map(ctx):
    rdd = ctx.parallelize([1, 2, 3], 2).flat_map(lambda x: [x] * x)
    assert rdd.collect() == [1, 2, 2, 3, 3, 3]


def test_union_keeps_duplicates(ctx):
    a = ctx.parallelize([1, 2], 2)
    b = ctx.parallelize([2, 3], 2)
    assert sorted(a.union(b).collect()) == [1, 2, 2, 3]


def test_key_by(ctx):
    rdd = ctx.parallelize(["aa", "b"], 2).key_by(len)
    assert sorted(rdd.collect()) == [(1, "b"), (2, "aa")]


def test_map_values_preserves_keys(ctx):
    rdd = ctx.parallelize([(1, 2), (3, 4)], 2).map_values(lambda v: v * 10)
    assert sorted(rdd.collect()) == [(1, 20), (3, 40)]


def test_reduce_by_key(ctx):
    data = [(i % 5, i) for i in range(100)]
    got = dict(ctx.parallelize(data, 4).reduce_by_key(lambda a, b: a + b).collect())
    expected = {}
    for k, v in data:
        expected[k] = expected.get(k, 0) + v
    assert got == expected


def test_group_by_key_groups_all_values(ctx):
    data = [(i % 3, i) for i in range(30)]
    got = {k: sorted(v) for k, v in ctx.parallelize(data, 4).group_by_key().collect()}
    expected = {}
    for k, v in data:
        expected.setdefault(k, []).append(v)
    assert got == {k: sorted(v) for k, v in expected.items()}


def test_combine_by_key_mean(ctx):
    data = [("a", 1.0), ("a", 3.0), ("b", 5.0)]
    combined = ctx.parallelize(data, 2).combine_by_key(
        lambda v: (v, 1),
        lambda acc, v: (acc[0] + v, acc[1] + 1),
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
    )
    means = {k: s / n for k, (s, n) in combined.collect()}
    assert means == {"a": 2.0, "b": 5.0}


def test_cogroup(ctx):
    a = ctx.parallelize([(1, "a"), (1, "b"), (2, "c")], 2)
    b = ctx.parallelize([(1, "x"), (3, "y")], 2)
    got = {k: (sorted(l), sorted(r)) for k, (l, r) in a.cogroup(b).collect()}
    assert got == {1: (["a", "b"], ["x"]), 2: (["c"], []), 3: ([], ["y"])}


def test_chained_pipeline(ctx):
    result = (
        ctx.parallelize(list(range(100)), 4)
        .map(lambda x: (x % 10, x))
        .filter(lambda kv: kv[0] < 5)
        .reduce_by_key(lambda a, b: a + b)
        .map_values(lambda v: v // 10)
        .collect()
    )
    assert len(result) == 5


def test_transformations_are_lazy(ctx):
    hits = []
    rdd = ctx.parallelize([1, 2, 3], 2).map(lambda x: hits.append(x) or x)
    assert hits == []  # nothing computed yet
    rdd.collect()
    assert sorted(hits) == [1, 2, 3]


def test_record_size_inheritance(ctx):
    src = ctx.parallelize([1, 2, 3], 2, record_size=500)
    mapped = src.map(lambda x: x)
    assert mapped.record_size == 500
    mapped.set_record_size(100)
    assert mapped.record_size == 100
    with pytest.raises(ValueError):
        mapped.set_record_size(0)


def test_num_partitions_validation(ctx):
    with pytest.raises(ValueError):
        ctx.parallelize([1], 0)
