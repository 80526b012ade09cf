"""``group_by_key`` as a declared combine (``ShuffleDependency.declared_group``).

The shuffle stores each map-side group as ``(key, tuple(values))`` and the
reducer hands out one fresh list per key.  Against the list-concatenating
triple it replaced, nothing observable may move: records and their order,
per-bucket counts, ``records_written``, offsets, bytes and simulated time.
What does move: stored groups of atomic values are invisible to the cyclic
collector, and a reducer's lists never alias the stored file.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.engine.dependencies import GROUP
from repro.engine.partitioner import HashPartitioner
from repro.engine.buckets import bucket_map_output, merge_reduce_buckets
from tests.conftest import build_on_demand_context
from tests.engine.test_map_output import KEYS, _setup

#: ``group_by_key``'s aggregator before it was declared.
CONCAT = (lambda v: [v], lambda acc, v: acc + [v], lambda a, b: a + b)


def _keyed(keys):
    def maps(rng, num_maps):
        return [[(k, rng.random()) for k in keys(rng, rng.choice([0, 3, 40]))]
                for _ in range(num_maps)]

    return maps


def _key_per_map(rng, num_maps):
    # Every key lives in exactly one map output: the reducer sees one group.
    return [[(m, (m, j)) for j in range(rng.choice([1, 4]))] for m in range(num_maps)]


def _hot_key(rng, num_maps):
    values = [(7, rng.randrange(10**6)) for _ in range(5000)]
    cut = sorted(rng.sample(range(1, 5000), num_maps - 1))
    return [values[a:b] for a, b in zip([0] + cut, cut + [5000])]


SHAPES = {
    "int ties": _keyed(KEYS["int ties"]),
    "str": _keyed(KEYS["str"]),
    "one key per map": _key_per_map,
    "one key, 5000 values": _hot_key,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", range(3))
def test_declared_group_matches_the_concatenating_triple(shape, seed):
    rng = random.Random(f"{shape}-{seed}")
    num_maps, n_reduce = rng.choice([1, 3, 5]), rng.choice([1, 2, 7])
    maps = SHAPES[shape](rng, num_maps)

    # End to end, each plan on its own context: results and simulated time.
    runs = []
    for grouped in (lambda rdd: rdd.group_by_key(n_reduce),
                    lambda rdd: rdd.combine_by_key(*CONCAT, n_reduce)):
        ctx = build_on_demand_context(3)
        rdd = grouped(ctx.generate(lambda p: maps[p], num_maps, record_size=100))
        runs.append((rdd.shuffle_dependency.declared_group, rdd.collect(), ctx.now,
                     ctx.shuffle_manager.bytes_written))
    (declared, got, now, written), (undeclared, want, want_now, want_written) = runs
    assert declared and not undeclared
    assert got == want
    assert all(type(values) is list for _key, values in got)
    assert now == want_now and written == want_written

    # Map side, output by output; reduce side, reducer by reducer.
    managers, deps, workers = zip(*(
        _setup(num_maps, HashPartitioner(n_reduce), agg, True) for agg in (GROUP, CONCAT)
    ))
    for map_id, records in enumerate(maps):
        (out, n), (ref, ref_n) = (bucket_map_output(dep, list(records)) for dep in deps)
        assert n == ref_n
        assert out.offsets == ref.offsets
        assert out.rows == tuple((key, tuple(values)) for key, values in ref.rows)
        statuses = [m.register_map_output(dep, map_id, w[map_id % 3], o, 100)
                    for m, dep, w, o in zip(managers, deps, workers, (out, ref))]
        assert statuses[0].bucket_bytes == statuses[1].bucket_bytes
    for reduce_id in range(n_reduce):
        merged = [
            merge_reduce_buckets(dep, m.fetch(dep, reduce_id, w[0])[0])
            for m, dep, w in zip(managers, deps, workers)
        ]
        assert merged[0] == merged[1]


def test_grouped_values_do_not_alias_the_shuffle_file(ctx):
    # Every key lives in one map output, so the reducer's group for it is a
    # single stored combiner; mutating it must not reach the next action.
    appended = (
        ctx.parallelize([(k, k) for k in range(6)], 3)
        .group_by_key(2)
        .map_values(lambda vs: (vs.append(0), len(vs))[1])
    )
    first = appended.collect()
    assert first == appended.collect()
    assert sorted(first) == [(k, 2) for k in range(6)]


def _full_collections(passes=5):
    # A collection untracks a tuple only once its items are untracked, and
    # may visit the tuple before them: one pass settles one nesting level.
    for _ in range(passes):
        gc.collect()


@pytest.mark.parametrize("aggregator", ["none", "group"])
def test_stored_atomic_records_are_untracked(aggregator):
    group = aggregator == "group"
    manager, dep, (worker, *_) = _setup(1, HashPartitioner(4), GROUP if group else None, group)
    rng = random.Random(aggregator)
    records = [(rng.randrange(50), (rng.random(), "s")) for _ in range(400)]
    output, _written = bucket_map_output(dep, records)
    status = manager.register_map_output(dep, 0, worker, output, 100)
    del output
    _full_collections()
    stored = worker.local_disk.get(status.disk_key)
    assert gc.is_tracked(stored.rows) is False
    assert not any(gc.is_tracked(record) for record in stored.rows)


def test_concatenated_groups_stay_tracked():
    # The contrast: list combiners keep every stored record visible.
    _manager, dep, _workers = _setup(1, HashPartitioner(4), CONCAT, True)
    output, _written = bucket_map_output(dep, [(k % 9, k) for k in range(100)])
    _full_collections()
    assert gc.is_tracked(output.rows)
    assert all(gc.is_tracked(record) for record in output.rows)


def test_fetched_buckets_are_tuples_and_groups_are_fresh():
    manager, dep, workers = _setup(3, HashPartitioner(2), GROUP, True)
    maps = [[(m, m), (m, -m), (10, m)] for m in range(3)]
    for map_id, records in enumerate(maps):
        output, _written = bucket_map_output(dep, records)
        manager.register_map_output(dep, map_id, workers[map_id], output, 100)
    for reduce_id in range(2):
        buckets, _local, _remote = manager.fetch(dep, reduce_id, workers[0])
        assert buckets and all(type(bucket) is tuple for bucket in buckets)
        stored = {id(values) for bucket in buckets for _key, values in bucket}
        for key, values in merge_reduce_buckets(dep, buckets):
            assert type(values) is list
            assert id(values) not in stored
            want = [v for records in maps for k, v in records if k == key]
            assert values == want
