"""ShuffleManager: map-output tracking, fetch accounting, loss on death."""

import pytest

from repro.cluster.worker import Worker
from repro.engine.dependencies import ShuffleDependency
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import ShuffleFetchFailure, ShuffleManager
from repro.market.instance import Instance
from tests.conftest import build_on_demand_context, flat_output


def make_setup(num_maps=2, num_reduces=2):
    ctx = build_on_demand_context(1)
    rdd = ctx.parallelize([(i, i) for i in range(10)], num_maps, record_size=100)
    dep = ShuffleDependency(rdd, HashPartitioner(num_reduces))
    manager = ShuffleManager()
    workers = []
    for i in range(2):
        w = Worker(f"w-{i}", Instance(f"i-{i}", "m", "r3.large", 0.1, 0.0))
        manager.register_worker(w)
        workers.append(w)
    return manager, dep, workers


def test_register_and_completeness():
    manager, dep, workers = make_setup()
    assert manager.missing_maps(dep) == [0, 1]
    manager.register_map_output(dep, 0, workers[0], flat_output([[(1, 1)], [(2, 2)]]), 100)
    assert manager.missing_maps(dep) == [1]
    manager.register_map_output(dep, 1, workers[1], flat_output([[(3, 3)], []]), 100)
    assert manager.is_complete(dep)


def test_register_validates_bucket_count():
    manager, dep, workers = make_setup()
    with pytest.raises(ValueError):
        manager.register_map_output(dep, 0, workers[0], flat_output([[(1, 1)]]), 100)


def test_fetch_concatenates_buckets_and_accounts_locality():
    manager, dep, workers = make_setup()
    manager.register_map_output(dep, 0, workers[0], flat_output([[(1, 1)], [(2, 2)]]), 100)
    manager.register_map_output(dep, 1, workers[1], flat_output([[(3, 3)], [(4, 4)]]), 100)
    buckets, local, remote = manager.fetch(dep, 0, workers[0])
    assert buckets == [((1, 1),), ((3, 3),)]
    assert local == 100  # map 0 lives on the fetching worker
    assert remote == 100


def test_fetch_missing_raises():
    manager, dep, workers = make_setup()
    manager.register_map_output(dep, 0, workers[0], flat_output([[(1, 1)], []]), 100)
    with pytest.raises(ShuffleFetchFailure) as err:
        manager.fetch(dep, 0, workers[0])
    assert err.value.missing_maps == [1]


def test_dead_worker_outputs_count_as_missing():
    manager, dep, workers = make_setup()
    manager.register_map_output(dep, 0, workers[0], flat_output([[(1, 1)], []]), 100)
    manager.register_map_output(dep, 1, workers[1], flat_output([[(3, 3)], []]), 100)
    workers[0].kill()
    assert manager.missing_maps(dep) == [0]


def test_remove_outputs_on_worker():
    manager, dep, workers = make_setup()
    manager.register_map_output(dep, 0, workers[0], flat_output([[(1, 1)], []]), 100)
    manager.register_map_output(dep, 1, workers[0], flat_output([[(3, 3)], []]), 100)
    lost = manager.remove_outputs_on("w-0")
    assert lost == 2
    assert manager.missing_maps(dep) == [0, 1]


def test_output_bytes_tracks_registered_volume():
    manager, dep, workers = make_setup()
    manager.register_map_output(dep, 0, workers[0], flat_output([[(1, 1), (2, 2)], [(3, 3)]]), 100)
    assert manager.output_bytes(dep) == 300


def test_counters():
    manager, dep, workers = make_setup()
    manager.register_map_output(dep, 0, workers[0], flat_output([[(1, 1)], []]), 100)
    manager.register_map_output(dep, 1, workers[1], flat_output([[(2, 2)], []]), 100)
    manager.fetch(dep, 0, workers[0])
    assert manager.bytes_written == 200
    assert manager.bytes_fetched_local == 100
    assert manager.bytes_fetched_remote == 100
