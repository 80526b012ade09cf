"""KMeans workload: clustering quality and caching behaviour."""


from repro.engine import Sum
from repro.workloads.kmeans import KMeansWorkload, _closest
from tests.conftest import build_on_demand_context


def small_kmeans(ctx, iterations=3):
    return KMeansWorkload(
        ctx, data_gb=0.2, num_points=800, k=4, dim=4,
        partitions=4, iterations=iterations, seed=11,
    )


def test_helpers():
    assert _closest((0.0, 0.0), [(5.0, 5.0), (0.1, 0.1)]) == 1
    assert Sum()(((1.0, 2.0), 1), ((3.0, 4.0), 2)) == ((4.0, 6.0), 3)


def test_load_caches_points():
    ctx = build_on_demand_context(2)
    km = small_kmeans(ctx)
    points = km.load()
    assert points.persisted
    assert ctx.cached_partition_count(points) == 4


def test_returns_k_centroids():
    ctx = build_on_demand_context(2)
    km = small_kmeans(ctx)
    centroids = km.run()
    assert len(centroids) == 4
    assert all(len(c) == 4 for c in centroids)


def test_iterations_reduce_cost():
    ctx = build_on_demand_context(2)
    km = small_kmeans(ctx)
    km.load()
    one = km.cost(km.run(iterations=1))
    many = km.cost(km.run(iterations=5))
    assert many <= one * 1.01


def test_deterministic():
    a = small_kmeans(build_on_demand_context(2)).run()
    b = small_kmeans(build_on_demand_context(2)).run()
    assert a == b


def test_distance_cost_multiplier_slows_iterations():
    slow_ctx = build_on_demand_context(2)
    fast_ctx = build_on_demand_context(2)
    slow = KMeansWorkload(slow_ctx, data_gb=0.5, num_points=800, k=4, dim=4,
                          partitions=4, distance_cost=10.0, seed=11)
    fast = KMeansWorkload(fast_ctx, data_gb=0.5, num_points=800, k=4, dim=4,
                          partitions=4, distance_cost=1.0, seed=11)
    slow.load(); fast.load()
    t0 = slow_ctx.now
    slow.run(iterations=1)
    slow_dt = slow_ctx.now - t0
    t0 = fast_ctx.now
    fast.run(iterations=1)
    fast_dt = fast_ctx.now - t0
    assert slow_dt > fast_dt * 2
