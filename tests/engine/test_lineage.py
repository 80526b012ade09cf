"""Lineage traversal helpers."""

from repro.engine import lineage
from tests.conftest import build_on_demand_context, joined


def make_dag(ctx):
    a = ctx.parallelize([(1, 1)], 2)
    b = a.map(lambda kv: kv)
    c = b.reduce_by_key(lambda x, y: x + y)
    d = ctx.parallelize([(1, 2)], 2)
    e = c.cogroup(d).flat_map(joined)
    return a, b, c, d, e


def test_parents_direct():
    ctx = build_on_demand_context(2)
    a, b, c, d, e = make_dag(ctx)
    assert lineage.parents(b) == [a]
    assert lineage.parents(c) == [b]


def test_ancestors_transitive_and_deduped():
    ctx = build_on_demand_context(2)
    a, b, c, d, e = make_dag(ctx)
    ids = {r.rdd_id for r in lineage.ancestors(e)}
    assert {a.rdd_id, b.rdd_id, c.rdd_id, d.rdd_id} <= ids
    assert e.rdd_id not in ids


def test_ancestors_of_source_is_empty():
    ctx = build_on_demand_context(2)
    a = ctx.parallelize([1], 1)
    assert lineage.ancestors(a) == []


def test_shuffle_dependencies_found():
    ctx = build_on_demand_context(2)
    a, b, c, d, e = make_dag(ctx)
    deps = lineage.shuffle_dependencies(e)
    # reduce_by_key + the cogroup's non-co-partitioned side (c is already
    # partitioned like the join target, so its side is narrow).
    assert len(deps) == 2


def test_lineage_depth():
    ctx = build_on_demand_context(2)
    a = ctx.parallelize([1], 1)
    assert lineage.lineage_depth(a) == 1
    b = a.map(lambda x: x).map(lambda x: x)
    assert lineage.lineage_depth(b) == 3


def test_is_ancestor():
    ctx = build_on_demand_context(2)
    a, b, c, d, e = make_dag(ctx)
    assert lineage.is_ancestor(a, e)
    assert not lineage.is_ancestor(e, a)
    assert not lineage.is_ancestor(d, c)


def test_diamond_dag_dedup():
    ctx = build_on_demand_context(2)
    a = ctx.parallelize([1, 2], 2)
    left = a.map(lambda x: (x, 1))
    right = a.map(lambda x: (x, 2))
    joined = left.union(right)
    ancestors = lineage.ancestors(joined)
    assert len([r for r in ancestors if r.rdd_id == a.rdd_id]) == 1
