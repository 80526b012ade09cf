"""One flat map output per map task: rows in bucket order plus an offset index.

Two contracts (see :mod:`repro.engine.buckets` and :mod:`repro.engine.shuffle`):

- a registered map output costs the cyclic collector at most two
  containers, whatever the number of reducers (none once its records are
  atomic, see ``test_group_combine.py``);
- a fetch returns, for its reducer, exactly the buckets a per-reducer
  bucketing of every map's records gives — the seed's list-of-lists layout,
  kept below as the reference — as tuples, with the empty ones left out,
  in map order.  A declared group's map outputs may be batches
  (``Group.combine``): where every map holding records wrote one, the fetch
  is one slice of the shuffle's reduce-major batch holding those records;
  where rows and batches mix, its batches become the row loop's stored
  ``(key, tuple(values))``.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.cluster.worker import Worker
from repro.engine.columnar import MIN_LOWERED_ROWS, ColumnarBatch, from_records
from repro.engine.declared import Group, Sum
from repro.engine.dependencies import GROUP, ShuffleDependency, identity
from repro.engine.partitioner import HashPartitioner, stable_hash
from repro.engine.buckets import bucket_map_output, map_output
from repro.engine.shuffle import ShuffleManager
from repro.market.instance import Instance
from tests.conftest import build_on_demand_context

SUM = Sum()
GROUPS = Group()


def _setup(num_maps, partitioner, aggregator=None, combine=False, num_workers=3):
    ctx = build_on_demand_context(1)
    rdd = ctx.parallelize(list(range(num_maps)), num_maps, record_size=100)
    dep = ShuffleDependency(rdd, partitioner, aggregator, combine)
    manager = ShuffleManager()
    workers = []
    for i in range(num_workers):
        worker = Worker(f"w-{i}", Instance(f"i-{i}", "m", "r3.large", 0.1, 0.0))
        manager.register_worker(worker)
        workers.append(worker)
    return manager, dep, workers


def tracked_containers(obj):
    """GC-tracked lists, tuples and dicts reachable from ``obj`` through
    tracked lists, tuples and dicts."""
    seen, stack, count = set(), [obj], 0
    while stack:
        item = stack.pop()
        if id(item) in seen or not isinstance(item, (list, tuple, dict)):
            continue
        seen.add(id(item))
        if gc.is_tracked(item):
            count += 1
            stack.extend(gc.get_referents(item))
    return count


@pytest.mark.parametrize("producer", ["rows", "combine", "sum kernel", "group kernel"])
@pytest.mark.parametrize("n_reduce", [1, 20, 120])
def test_a_map_output_is_two_containers(producer, n_reduce):
    combine = producer != "rows"
    aggregator = GROUP if producer == "group kernel" else (identity, SUM, SUM)
    manager, dep, workers = _setup(
        1, HashPartitioner(n_reduce), aggregator if combine else None, combine
    )
    rng = random.Random(n_reduce)
    records = [(rng.randrange(10 * n_reduce), rng.random()) for _ in range(5 * n_reduce)]
    if producer.endswith("kernel"):
        output = map_output(*dep.declared.combine(from_records(records), n_reduce))
    else:
        output, _written = bucket_map_output(dep, records)
    status = manager.register_map_output(dep, 0, workers[0], output, 100)
    del output
    gc.collect()
    stored = workers[0].local_disk.get(status.disk_key)
    assert tracked_containers(stored) <= 2
    assert sum(status.bucket_bytes) == 100 * len(stored.rows)


# ----------------------------------------------------------------------
# Fetch against a list-of-lists reference
# ----------------------------------------------------------------------
def reference_buckets(dep, records):
    """Per-reducer buckets by one table per bucket — the seed's layout."""
    n = dep.num_reduce_partitions
    part = dep.partitioner.partition_for
    if not dep.map_side_combine:
        buckets = [[] for _ in range(n)]
        for record in records:
            buckets[part(record[0])].append(record)
        return buckets
    create, merge_value, _ = dep.aggregator
    tables = [{} for _ in range(n)]
    for key, value in records:
        table = tables[part(key)]
        table[key] = merge_value(table[key], value) if key in table else create(value)
    return [sorted(t.items(), key=lambda kv: stable_hash(kv[0])) for t in tables]


class _ModPartitioner(HashPartitioner):
    """Not a plain HashPartitioner: buckets by the key's length or value."""

    def partition_for(self, key):
        size = len(key) if isinstance(key, str) else key
        return (size * 7) % self.num_partitions


def _tie_keys(rng, n):
    # Pairs k / k + 2**31 share a hash, so they share a bucket and tie.
    base = [rng.randrange(-(10**5), 10**5) for _ in range(5)]
    pool = base + [k + 2**31 for k in base[:3]] + [k - 2**31 for k in base[3:]]
    return [rng.choice(pool) for _ in range(n)]


def _str_keys(rng, n):
    return [rng.choice(["a", "bb", "key", "flint", "spot", ""]) + str(rng.randrange(9))
            for _ in range(n)]


KEYS = {"int ties": _tie_keys, "str": _str_keys}
PARTITIONERS = {"hash": HashPartitioner, "other": _ModPartitioner}
ADD = (lambda v: [v], lambda c, v: c + [v], lambda a, b: a + b)


def _map_output(dep, records, n_reduce):
    """What a map task writes: a declared group's batch head (at least
    ``MIN_LOWERED_ROWS`` records here) combined by ``Group.combine``, else
    the row loop's output."""
    if type(dep.declared) is Group and len(records) >= MIN_LOWERED_ROWS:
        batch, sizes = GROUPS.combine(from_records(records), n_reduce)
        return map_output(batch, sizes), batch.length
    return bucket_map_output(dep, list(records))


AGGREGATORS = {False: None, True: ADD, "group": GROUP}


@pytest.mark.parametrize("combine", [False, True, "group"])
@pytest.mark.parametrize("keys", sorted(KEYS))
@pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
@pytest.mark.parametrize("seed", range(4))
def test_fetch_equals_the_list_of_lists_reference(combine, keys, partitioner, seed):
    rng = random.Random(f"{combine}-{keys}-{partitioner}-{seed}")
    num_maps, n_reduce = rng.choice([1, 3, 6]), rng.choice([1, 2, 7, 30])
    if combine == "group":
        # A declared group's heads: an empty map, then batches; on odd seeds
        # one head below MIN_LOWERED_ROWS stays rows, so the shuffle mixes
        # rows and batches.
        num_maps = rng.choice([3, 6])
        sizes = iter([0, 5 if seed % 2 else 0] + [40 + 50 * (m % 2) for m in range(num_maps - 2)])
        draw_size = sizes.__next__
    else:
        draw_size = lambda: rng.choice([0, 1, 5, 40])
    manager, dep, workers = _setup(
        num_maps, PARTITIONERS[partitioner](n_reduce), AGGREGATORS[combine], bool(combine)
    )
    # A declared group (only under a plain HashPartitioner) stores each
    # group as a tuple, whether a batch or the row loop wrote it.
    frozen = type(dep.declared) is Group
    want = []
    for map_id in range(num_maps):
        n = draw_size()
        records = [(k, rng.randrange(100)) for k in KEYS[keys](rng, n)]
        want.append(reference_buckets(dep, records))
        if frozen:
            want[-1] = [[(k, tuple(vs)) for k, vs in bucket] for bucket in want[-1]]
        output, written = _map_output(dep, records, n_reduce)
        assert written == sum(map(len, want[-1]))
        manager.register_map_output(dep, map_id, rng.choice(workers), output, 100)
    for reduce_id in range(n_reduce):
        buckets, local, remote = manager.fetch(dep, reduce_id, rng.choice(workers))
        expected = [tuple(m[reduce_id]) for m in want if m[reduce_id]]
        if buckets and type(buckets[0]) is ColumnarBatch:
            # Every map holding records wrote a batch: one slice, in map order.
            (batch,) = buckets
            assert GROUPS.rows(batch) == [record for bucket in expected for record in bucket]
        else:
            assert buckets == expected
            assert all(type(bucket) is tuple for bucket in buckets)
        assert local + remote == 100 * sum(map(len, expected))
