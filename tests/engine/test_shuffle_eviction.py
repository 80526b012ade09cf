"""Shuffle-file eviction under local-disk pressure."""


from repro.cluster.worker import Worker
from repro.engine.dependencies import ShuffleDependency
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import ShuffleManager
from repro.market.instance import Instance
from tests.conftest import build_on_demand_context, flat_output


def test_old_shuffle_files_evicted_when_disk_fills():
    ctx = build_on_demand_context(1)
    rdd = ctx.parallelize([(i, i) for i in range(10)], 1, record_size=100)
    manager = ShuffleManager()
    worker = Worker("w-0", Instance("i-0", "m", "r3.large", 0.1, 0.0))
    worker.local_disk.capacity_bytes = 2500
    manager.register_worker(worker)
    deps = [ShuffleDependency(rdd, HashPartitioner(1)) for _ in range(4)]
    # Each output is 1000B; the third registration must evict the first.
    for dep in deps[:3]:
        manager.register_map_output(dep, 0, worker, flat_output([[(1, 1)] * 10]), 100)
    assert not manager.has_map_output(deps[0].shuffle_id, 0)
    assert manager.has_map_output(deps[1].shuffle_id, 0)
    assert manager.has_map_output(deps[2].shuffle_id, 0)


def test_evicted_shuffles_recompute_through_lineage():
    """An iterative job whose shuffle outputs exceed the local disks still
    completes correctly (old shuffle files are regenerated when needed)."""
    ctx = build_on_demand_context(2)
    # Tiny disks: each worker can hold only a couple of shuffle outputs.
    for worker in ctx.cluster.live_workers():
        worker.local_disk.capacity_bytes = 10 * 10**9
    rdd = ctx.parallelize([(i % 5, 1) for i in range(100)], 4, record_size=50_000_000)
    totals = []
    current = rdd
    for _ in range(6):
        current = current.reduce_by_key(lambda a, b: a + b).map(
            lambda kv: (kv[0], kv[1] + 1)
        )
        totals.append(sorted(current.collect()))
    # Deterministic evolution: re-collecting the final RDD matches.
    assert sorted(current.collect()) == totals[-1]
