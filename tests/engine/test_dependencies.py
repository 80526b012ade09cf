"""Dependency mapping: one-to-one, range, shuffle metadata."""

from repro.engine.dependencies import (
    OneToOneDependency,
    RangeDependency,
    ShuffleDependency,
)
from repro.engine.partitioner import HashPartitioner
from tests.conftest import build_on_demand_context


def test_one_to_one():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize([1, 2, 3, 4], 4)
    dep = OneToOneDependency(rdd)
    assert dep.parents_of(0) == [0]
    assert dep.parents_of(3) == [3]


def test_range_dependency_maps_slice():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize([1, 2, 3, 4], 4)
    dep = RangeDependency(rdd, in_start=0, out_start=4, length=4)
    assert dep.parents_of(4) == [0]
    assert dep.parents_of(7) == [3]
    assert dep.parents_of(3) == []
    assert dep.parents_of(8) == []


def test_union_builds_range_dependencies():
    ctx = build_on_demand_context(2)
    a = ctx.parallelize([1, 2], 2)
    b = ctx.parallelize([3, 4, 5], 3)
    u = a.union(b)
    assert u.num_partitions == 5
    assert sorted(u.collect()) == [1, 2, 3, 4, 5]


def test_shuffle_dependency_ids_unique_and_counts():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize([(1, 1)], 3)
    d1 = ShuffleDependency(rdd, HashPartitioner(5))
    d2 = ShuffleDependency(rdd, HashPartitioner(5))
    assert d1.shuffle_id != d2.shuffle_id
    assert d1.num_map_partitions == 3
    assert d1.num_reduce_partitions == 5
