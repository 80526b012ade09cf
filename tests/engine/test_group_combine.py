"""``group_by_key`` as a declared combine (``ShuffleDependency.declared``).

The shuffle stores each map-side group as ``(key, tuple(values))`` and the
reducer hands out one fresh list per key.  Against the list-concatenating
triple it replaced, nothing observable may move: records and their order,
per-bucket counts, ``records_written``, offsets, bytes and simulated time.
What does move: stored groups of atomic values are invisible to the cyclic
collector, and a reducer's lists never alias the stored file.

Its batch form (``declared.Group``) holds the same line on both sides of
the shuffle: ``combine`` writes the row loop's map output as columns and
``merge`` is the row merge by sort, record for record.  A persisted
reducer's merged batch seeds its block's sidecar, so PageRank's cogroup
reads its links without columnarising them; ALS's group, fed by a lambda,
stays on the row loop.
"""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.block_manager import block_id_for
from repro.engine.columnar import as_sidecar, from_records
from repro.engine.declared import Group
from repro.engine.dependencies import GROUP, ShuffleDependency
from repro.engine.partitioner import HashPartitioner
from repro.engine.buckets import (
    bucket_map_output, map_output, merge_reduce_buckets, reduce_major,
)
from repro.workloads import ALSWorkload, PageRankWorkload
from tests.conftest import build_on_demand_context, plane
from tests.engine.test_columnar_combine import ConversionCounter, exact
from tests.engine.test_kernel_twins import F8, I8, TEXT
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
        runs.append((rdd.shuffle_dependency.declared is not None, rdd.collect(), ctx.now,
                     ctx.shuffle_manager.bytes_written))
    (declared, got, now, written), (undeclared, want, want_now, want_written) = runs
    assert declared and not undeclared
    assert got == want
    assert all(type(values) is list for _key, values in got)
    assert now == want_now and written == want_written

    # Map side, output by output; reduce side, reducer by reducer.
    managers, deps, workers = zip(*(
        _setup(num_maps, HashPartitioner(n_reduce), agg) for agg in (GROUP, CONCAT)
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
    manager, dep, (worker, *_) = _setup(1, HashPartitioner(4), GROUP if group else None)
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
    _manager, dep, _workers = _setup(1, HashPartitioner(4), CONCAT)
    output, _written = bucket_map_output(dep, [(k % 9, k) for k in range(100)])
    _full_collections()
    assert gc.is_tracked(output.rows)
    assert all(gc.is_tracked(record) for record in output.rows)


def test_fetched_buckets_are_tuples_and_groups_are_fresh():
    manager, dep, workers = _setup(3, HashPartitioner(2), GROUP)
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


# ----------------------------------------------------------------------
# The batch form against the row path
# ----------------------------------------------------------------------
GROUPS = Group()

#: Int keys that tie on their hash (``k`` and ``k ± 2**31``), negative ones,
#: and keys too far apart to be counted in a table.
TIED = st.sampled_from([-3, -1, 0, 2, 7, 2**31 - 1, 2 + 2**31, -1 - 2**31, 7 - 2**31])
KEY_COLUMNS = st.sampled_from([TIED, st.integers(-40, 40), I8, TEXT])
#: Values are never computed on, so any schema groups: ``-0.0``, NaN and
#: infinities included, and lists that may all be empty.
VALUE_COLUMNS = st.sampled_from([
    F8,
    st.tuples(F8, st.integers(-5, 5)),
    st.lists(st.integers(-5, 5), max_size=3),
    TEXT,
])


@st.composite
def group_shuffles(draw):
    """Map partitions of ``(key, value)`` records of one key and one value
    strategy, and a reducer count."""
    keys, values = draw(KEY_COLUMNS), draw(VALUE_COLUMNS)
    records = st.lists(st.tuples(keys, values), min_size=1, max_size=60)
    return draw(st.lists(records, min_size=1, max_size=4)), draw(st.integers(1, 9))


@settings(max_examples=100, deadline=None)
@given(group_shuffles())
def test_the_batch_group_equals_the_row_path_record_for_record(shuffle):
    maps, n_reduce = shuffle
    dep = ShuffleDependency(None, HashPartitioner(n_reduce), GROUP)
    assert type(dep.declared) is Group
    batches = [from_records(records) for records in maps]
    if any(batch is None for batch in batches) or len({b.schema for b in batches}) > 1:
        return  # the map heads would have stayed rows
    rows_out, batch_out = [], []
    for records, batch in zip(maps, batches):
        want, written = bucket_map_output(dep, list(records))
        combined, sizes = GROUPS.combine(batch, n_reduce)
        got = map_output(combined, sizes)
        assert got.offsets == want.offsets and combined.length == written
        assert exact(GROUPS.rows(combined)) == exact(list(want.rows))
        rows_out.append(want)
        batch_out.append(got)
    transposed, offsets = reduce_major(batch_out, n_reduce)
    for r in range(n_reduce):
        if offsets[r] == offsets[r + 1]:
            continue
        fetched = transposed.slice(offsets[r], offsets[r + 1])
        want = merge_reduce_buckets(dep, [
            rows[off[r]:off[r + 1]] for rows, off in rows_out if off[r] != off[r + 1]
        ])
        merged = GROUPS.merge(fetched)
        assert exact(merged.to_records()) == exact(want)
        # The row fallback of a fetched slice gives the same records.
        assert exact(merge_reduce_buckets(dep, [fetched])) == exact(want)
        if as_sidecar(merged) is not None:
            assert merged.schema == from_records(want).schema


def test_a_group_without_list_elements_seeds_no_sidecar():
    records = [(k % 3, []) for k in range(40)]
    merged = GROUPS.merge(GROUPS.combine(from_records(records), 1)[0])
    assert exact(merged.to_records()) == exact([(k, [[]] * 14 if k == 0 else [[]] * 13)
                                                for k in (0, 1, 2)])
    assert as_sidecar(merged) is None
    seeded = as_sidecar(GROUPS.merge(GROUPS.combine(from_records(
        [(k % 3, float(k)) for k in range(40)]), 1)[0]))
    keys, (counts, values) = seeded.data
    assert not (keys.flags.writeable or counts.flags.writeable or values.flags.writeable)


def test_other_keys_are_refused():
    for records in ([((1, 2), 0.5)] * 40, [(0.5, 1)] * 40):
        batch = from_records(records)
        assert GROUPS.combine(batch, 3) is None
        assert GROUPS.merge(batch) is None


# ----------------------------------------------------------------------
# End to end: PageRank's links lower, ALS's group stays on rows
# ----------------------------------------------------------------------
def _pagerank(columnar):
    with plane(columnar):
        ctx = build_on_demand_context(2)
        pagerank = PageRankWorkload(
            ctx, data_gb=0.1, num_edges=4000, num_vertices=400,
            partitions=4, iterations=2, seed=5,
        )
        ranks = pagerank.run()
    return ranks, ctx.now, ctx, pagerank.links


def test_pagerank_groups_its_links_by_sort_and_never_columnarises_them(monkeypatch):
    counted = ConversionCounter(monkeypatch)
    ranks, now, ctx, links = _pagerank(True)
    want_ranks, want_now, row_ctx, _links = _pagerank(False)
    assert ranks == want_ranks and now == want_now
    stats = ctx.scheduler.stats
    assert stats.task_counts() == row_ctx.scheduler.stats.task_counts()
    # 4 group heads drawn as columns, then 4 Sum heads per iteration.
    assert stats.columnar_combines == 4 + 2 * 4
    assert stats.columnar_fallbacks == 0
    # Only the ranks the second iteration's cogroup reads are columnarised.
    assert len(counted.from_rows) == 4
    assert all(type(value) is float for rows in counted.from_rows for _key, value in rows)
    seen = 0
    for worker in ctx.cluster.live_workers():
        store = worker.block_manager
        for p in range(links.num_partitions):
            block = block_id_for(links.rdd_id, p)
            if block in store.memory_block_ids():
                rows = store.get(block)[0]
                sidecar = store.columnar(block, rows)
                assert exact(sidecar.to_records()) == exact(rows)
                assert sidecar.schema == from_records(rows).schema
                seen += 1
    assert seen == links.num_partitions
    assert len(counted.from_rows) == 4


def test_als_keeps_its_group_on_the_row_loop(monkeypatch):
    counted = ConversionCounter(monkeypatch)
    ctx = build_on_demand_context(2)
    als = ALSWorkload(
        ctx, data_gb=0.2, num_ratings=1200, num_users=80, num_items=30,
        rank=4, partitions=4, iterations=2, seed=13,
    )
    als.run()
    stats = ctx.scheduler.stats
    # Its groups are declared, but a lambda flat_map feeds them: the head
    # is rows, so no chain lowers, nothing combines from a batch, and the
    # only conversion is the persisted ratings source, drawn as columns,
    # becoming its blocks' rows.
    assert stats.columnar_chains == 0
    assert stats.columnar_combines == 0
    assert stats.columnar_fallbacks == 0
    assert (counted.from_rows, counted.to_rows) == ([], 4)
