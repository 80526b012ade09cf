"""Co-partitioned cogroup: narrow joins against pre-partitioned data."""

from repro.engine.dependencies import NarrowDependency, ShuffleDependency
from tests.conftest import build_on_demand_context, joined


def test_cogroup_with_matching_partitioner_is_narrow():
    ctx = build_on_demand_context(2)
    left = ctx.parallelize([(i, i) for i in range(40)], 4).reduce_by_key(lambda a, b: a)
    right = ctx.parallelize([(i, -i) for i in range(40)], 4)
    grouped = left.cogroup(right, 4)
    kinds = [type(dep) for dep in grouped.dependencies]
    assert any(issubclass(k, NarrowDependency) for k in kinds)
    assert any(issubclass(k, ShuffleDependency) for k in kinds)


def test_cogroup_both_sides_narrow_when_copartitioned():
    ctx = build_on_demand_context(2)
    left = ctx.parallelize([(i, i) for i in range(40)], 4).reduce_by_key(lambda a, b: a + b)
    right = left.map_values(lambda v: -v)  # preserves partitioning
    grouped = left.cogroup(right, 4)
    assert all(isinstance(dep, NarrowDependency) for dep in grouped.dependencies)


def test_copartitioned_join_correctness():
    ctx = build_on_demand_context(2)
    data = [(i % 13, i) for i in range(100)]
    left = ctx.parallelize(data, 4).reduce_by_key(lambda a, b: a + b)
    right = left.map_values(lambda v: v * 2)
    got = sorted(left.cogroup(right, 4).flat_map(joined).collect())
    sums = {}
    for k, v in data:
        sums[k] = sums.get(k, 0) + v
    expected = sorted((k, (v, v * 2)) for k, v in sums.items())
    assert got == expected


def test_copartitioned_join_shuffles_nothing_extra():
    ctx = build_on_demand_context(2)
    base = ctx.parallelize([(i, i) for i in range(40)], 4).reduce_by_key(lambda a, b: a)
    base.persist().count()
    maps_before = ctx.scheduler.stats.map_tasks
    derived = base.map_values(lambda v: v + 1)
    base.cogroup(derived, 4).count()
    # No new shuffle-map tasks: both sides were already partitioned.
    assert ctx.scheduler.stats.map_tasks == maps_before


def test_recovery_through_narrow_cogroup():
    ctx = build_on_demand_context(3)
    data = [(i % 7, i) for i in range(100)]
    left = ctx.parallelize(data, 4, record_size=1000).reduce_by_key(lambda a, b: a + b).persist()
    pairs = left.cogroup(left.map_values(lambda v: v), 4).flat_map(joined).persist()
    before = sorted(pairs.collect())
    ctx.cluster.force_revoke(ctx.cluster.live_workers()[:2])
    assert sorted(pairs.collect()) == before
