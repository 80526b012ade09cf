"""Action semantics: collect/count/fold/sum, sources and persistence."""

import pytest

from tests.conftest import build_on_demand_context


@pytest.fixture
def ctx():
    return build_on_demand_context(4)


def test_collect_preserves_partition_order(ctx):
    rdd = ctx.parallelize(list(range(20)), 5)
    assert rdd.collect() == list(range(20))


def test_count(ctx):
    assert ctx.parallelize(list(range(137)), 6).count() == 137


def test_count_empty(ctx):
    assert ctx.parallelize([], 2).count() == 0


def test_fold(ctx):
    assert ctx.parallelize([1, 2, 3], 3).fold(0, lambda a, b: a + b) == 6
    assert ctx.parallelize([], 3).fold(0, lambda a, b: a + b) == 0


def test_sum(ctx):
    assert ctx.parallelize([1.5, 2.5], 2).sum() == pytest.approx(4.0)


def test_actions_advance_simulated_time(ctx):
    t0 = ctx.now
    ctx.parallelize(list(range(1000)), 4, record_size=10_000).count()
    assert ctx.now > t0


def test_generate_source(ctx):
    rdd = ctx.generate(lambda p: list(range(p * 10, (p + 1) * 10)), 4)
    assert rdd.collect() == list(range(40))


def test_persist_caches_partitions(ctx):
    rdd = ctx.parallelize(list(range(40)), 4, record_size=100).persist()
    rdd.count()
    assert ctx.cached_partition_count(rdd) == 4
    t0 = ctx.now
    rdd.count()  # served from cache: cheaper than recompute
    cached_dt = ctx.now - t0
    assert cached_dt >= 0


def test_unpersist_drops_cache(ctx):
    rdd = ctx.parallelize(list(range(40)), 4).persist()
    rdd.count()
    rdd.unpersist()
    assert ctx.cached_partition_count(rdd) == 0
    assert not rdd.persisted


def test_default_parallelism_follows_slots(ctx):
    # 4 r3.large workers x 2 VCPUs = 8 slots.
    assert ctx.default_parallelism == 8
    rdd = ctx.parallelize(list(range(16)))
    assert rdd.num_partitions == 8
