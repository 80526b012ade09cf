"""Lineage fingerprinting and the invariant-checked result cache."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import build_engine_context
from repro.engine import Pair, Split
from repro.engine.partitioner import HashPartitioner
from repro.server import (
    CacheInvariantError,
    JobServer,
    ResultCache,
    ServerConfig,
    lineage_fingerprint,
)
from repro.workloads.kmeans import Assign


@pytest.fixture
def ctx():
    return build_engine_context(num_workers=4, seed=0)


def _plan(ctx, n=60, parts=4, threshold=10):
    return (
        ctx.parallelize(list(range(n)), parts)
        .map(lambda x: x * 3)
        .filter(lambda x: x > threshold)
    )


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_stable_across_sessions():
    a = build_engine_context(num_workers=4, seed=0)
    b = build_engine_context(num_workers=4, seed=0)
    # Allocate extra RDDs in one session first, so rdd_id sequences differ:
    # the fingerprint must be structural, not id-based.
    b.parallelize([1, 2, 3], 1)
    b.parallelize([4, 5], 1)
    assert lineage_fingerprint(_plan(a)) == lineage_fingerprint(_plan(b))


def test_fingerprint_distinguishes_plans(ctx):
    base = lineage_fingerprint(_plan(ctx))
    assert lineage_fingerprint(_plan(ctx, n=61)) != base  # different data
    assert lineage_fingerprint(_plan(ctx, parts=5)) != base  # partitioning
    assert lineage_fingerprint(_plan(ctx, threshold=11)) != base  # closure cell
    different_op = ctx.parallelize(list(range(60)), 4).map(lambda x: x * 4)
    assert lineage_fingerprint(different_op) != base
    assert lineage_fingerprint(_plan(ctx), action="count") != base
    assert lineage_fingerprint(_plan(ctx), params=("x",)) != base


def test_fingerprint_distinguishes_shuffle_aggregators(ctx):
    # The aggregator lives on the shuffle edge, not on any node: a sum, a
    # max and a group over the same input are three different queries.
    pairs = ctx.parallelize([(x % 5, x) for x in range(40)], 4)
    plans = [
        pairs.reduce_by_key(lambda a, b: a + b, 2),
        pairs.reduce_by_key(max, 2),
        pairs.group_by_key(2),
        pairs.partition_by(HashPartitioner(2)),
    ]
    keys = {lineage_fingerprint(plan) for plan in plans}
    assert len(keys) == len(plans)
    # ...and the description stays structural, session to session.
    again = ctx.parallelize([(x % 5, x) for x in range(40)], 4).reduce_by_key(max, 2)
    assert lineage_fingerprint(again) == lineage_fingerprint(plans[1])


def test_fingerprint_distinguishes_keyword_only_defaults(ctx):
    # A factory binding its parameter as a keyword-only default leaves no
    # closure cell and no positional default: the value lives only in
    # ``__kwdefaults__``, and two different queries must not share a key.
    def scaled(k):
        def f(x, *, scale=k):
            return x * scale

        return f

    base = ctx.parallelize([0, 1, 2], 1)
    one, two = base.map(scaled(1)), base.map(scaled(2))
    assert one.collect() == [0, 1, 2] and two.collect() == [0, 2, 4]
    assert lineage_fingerprint(one) != lineage_fingerprint(two)
    assert lineage_fingerprint(one) == lineage_fingerprint(base.map(scaled(1)))


def test_fingerprint_distinguishes_declared_row_functions(ctx):
    # A declared row function is a callable instance with no code of its
    # own: its value is what tells ``Pair(1)`` from ``Pair(2)``.
    words = ctx.parallelize(["a b", "b"], 1).flat_map(Split())
    one, two = words.map(Pair(1)), words.map(Pair(2))
    assert one.collect() == [("a", 1), ("b", 1), ("b", 1)]
    assert two.collect() == [("a", 2), ("b", 2), ("b", 2)]
    assert lineage_fingerprint(one) != lineage_fingerprint(two)
    assert lineage_fingerprint(one) == lineage_fingerprint(words.map(Pair(1)))
    assert lineage_fingerprint(one) != lineage_fingerprint(words.map(Pair(1.0)))


class _Scale:
    """A plain callable class: its state lives in ``__dict__``."""

    def __init__(self, k):
        self.k = k

    def __call__(self, x):
        return x * self.k


def test_fingerprint_distinguishes_callable_instances_by_their_state(ctx):
    base = ctx.parallelize(list(range(8)), 2)
    two, three = base.map(_Scale(2)), base.map(_Scale(3))
    assert two.collect() != three.collect()
    assert lineage_fingerprint(two) != lineage_fingerprint(three)
    assert lineage_fingerprint(two) == lineage_fingerprint(base.map(_Scale(2)))
    # Two KMeans iterations differ only in the centroids they assign to.
    points = ctx.parallelize([(0.0, 1.0), (2.0, 3.0)], 1)
    first = points.map(Assign([(0.0, 0.0), (1.0, 1.0)]))
    second = points.map(Assign([(0.0, 0.0), (2.0, 2.0)]))
    assert lineage_fingerprint(first) != lineage_fingerprint(second)


class _Cfg:
    """A plain object a lambda captures, whose state is a container."""

    def __init__(self, weights):
        self.weights = weights


def test_fingerprint_describes_an_opaque_objects_containers(ctx):
    base = ctx.parallelize(list(range(8)), 2)

    def weighted(cfg):
        return base.map(lambda x, c=cfg: x * c.weights[0] + c.weights[1])

    first, second = weighted(_Cfg([1, 2])), weighted(_Cfg([3, 4]))
    assert first.collect() != second.collect()
    assert lineage_fingerprint(first) != lineage_fingerprint(second)
    assert lineage_fingerprint(first) == lineage_fingerprint(weighted(_Cfg([1, 2])))
    for a, b in [({"w": 1}, {"w": 2}), ((1,), (2,)), ({1}, {2})]:
        assert lineage_fingerprint(weighted(_Cfg(a))) != lineage_fingerprint(weighted(_Cfg(b)))
    # The oracle: a validated cache recomputes every hit, so two plans
    # sharing a key would raise CacheInvariantError at the second query.
    cache = ResultCache(validate=True)
    server = JobServer(ctx, ServerConfig(result_cache=cache))
    for plan in (first, second):
        key = lineage_fingerprint(plan, action="collect")
        served = server.submit_query(plan.collect, name="weighted", cache_key=key)
        assert served.ok and not served.cached
    assert (cache.hits, cache.misses) == (0, 2)


def test_fingerprint_describes_an_opaque_objects_objects_by_type(ctx):
    # A captured RDD is named by its type, never walked: its lineage is
    # not the captured object's state.
    base = ctx.parallelize(list(range(8)), 2)

    def holding(obj):
        return base.map(lambda x, c=_Cfg(obj): (x, c))

    keys = {lineage_fingerprint(holding(ctx.parallelize([k], 1))) for k in (1, 2)}
    assert len(keys) == 1
    assert lineage_fingerprint(holding(_Scale(2))) not in keys


def test_fingerprint_ignores_names_and_persistence(ctx):
    plain = _plan(ctx)
    decorated = _plan(ctx)
    decorated.name = "friendly-name"
    decorated.persist()
    assert lineage_fingerprint(plain) == lineage_fingerprint(decorated)


def test_fingerprint_on_tpch_q3_is_reproducible():
    from repro.workloads import TPCHSession

    keys = []
    for _ in range(2):
        ctx = build_engine_context(num_workers=4, seed=5)
        session = TPCHSession(
            ctx, data_gb=1.0, lineitem_rows=600, orders_rows=150,
            customer_rows=40, partitions=4, seed=5,
        )
        session.load()
        keys.append(lineage_fingerprint(session.q3_plan(), params=("q3",)))
    assert keys[0] == keys[1]


# ----------------------------------------------------------------------
# The cache object
# ----------------------------------------------------------------------
def test_cache_lru_eviction():
    cache = ResultCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.lookup("a") == (True, 1)  # refreshes a
    cache.put("c", 3)  # evicts b, the least recently used
    assert cache.lookup("b") == (False, None)
    assert cache.lookup("a") == (True, 1)
    assert cache.lookup("c") == (True, 3)
    assert cache.evictions == 1
    assert cache.describe()["entries"] == 2


def test_cache_check_raises_on_divergence():
    cache = ResultCache(validate=True)
    cache.check("k" * 64, [1, 2], [1, 2])  # equal: fine
    with pytest.raises(CacheInvariantError):
        cache.check("k" * 64, [1, 2], [1, 3])
    assert cache.validated == 2


# ----------------------------------------------------------------------
# Through the server
# ----------------------------------------------------------------------
def test_server_cache_hit_is_instant_and_slotless(ctx):
    server = JobServer(ctx, ServerConfig(result_cache=ResultCache()))
    plan = _plan(ctx)
    key = lineage_fingerprint(plan, action="count")
    fn = plan.count
    miss = server.submit_query(fn, name="first", cache_key=key)
    assert miss.ok and not miss.cached
    assert miss.response > 0  # the miss ran tasks in simulated time
    hit = server.submit_query(fn, name="second", cache_key=key)
    assert hit.ok and hit.cached
    assert hit.result == miss.result
    assert hit.response == 0.0  # served at the front door, zero latency
    assert server.stats.cache_hits == 1
    report = server.slo_report()
    assert report["result_cache"]["hits"] == 1
    assert report["result_cache"]["misses"] == 1
    assert report["pools"]["default"]["cached"] == 1


def test_server_cache_validate_mode_recomputes(ctx):
    cache = ResultCache(validate=True)
    server = JobServer(ctx, ServerConfig(result_cache=cache))
    plan = _plan(ctx)
    key = lineage_fingerprint(plan, action="count")
    server.submit_query(plan.count, name="fill", cache_key=key)
    hit = server.submit_query(plan.count, name="check", cache_key=key)
    assert hit.cached and cache.validated == 1
    # A poisoned entry is caught at the next validated hit, not served.
    cache.put(key, -999)
    with pytest.raises(CacheInvariantError):
        server.submit_query(plan.count, name="poisoned", cache_key=key)


def test_server_cache_hit_counts_in_obs_metrics(monkeypatch):
    monkeypatch.setenv("FLINT_TRACE", "1")
    ctx = build_engine_context(num_workers=4, seed=0)
    assert ctx.obs.enabled
    server = JobServer(ctx, ServerConfig(result_cache=ResultCache()))
    plan = _plan(ctx)
    key = lineage_fingerprint(plan, action="count")
    server.submit_query(plan.count, name="a", cache_key=key)
    server.submit_query(plan.count, name="b", cache_key=key)
    assert ctx.metrics_report()["counters"].get("server.cache_hits") == 1
    cached_spans = ctx.obs.bus.count("query", status="cached")
    assert cached_spans == 1


def test_queries_without_keys_bypass_the_cache(ctx):
    cache = ResultCache()
    server = JobServer(ctx, ServerConfig(result_cache=cache))
    plan = _plan(ctx)
    server.submit_query(plan.count, name="anon")
    server.submit_query(plan.count, name="anon2")
    assert cache.hits == cache.misses == 0
    assert len(cache) == 0
