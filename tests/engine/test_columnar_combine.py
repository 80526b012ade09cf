"""Declared ``Sum`` reducer: columnar map-side combine and block sidecars.

Three contracts (see :mod:`repro.engine.columnar`):

- ``Sum.combine`` lays out, straight from a batch, exactly the map output
  ``buckets.bucket_map_output`` builds from the same rows — same rows and
  offsets, same Python types, float leaves equal by ``float.hex`` — or
  refuses, and
  a refusal runs the row loop with the same results;
- a map head that feeds the declared combine is not turned back into rows
  unless something observes it, and a persisted partition is columnarised
  once per cached block, not once per pass;
- that sidecar belongs to the block entry: no way of losing the entry
  leaves the batch reachable.
"""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest

from repro.engine import block_manager, columnar, task_runtime
from repro.engine.block_manager import block_id_for
from repro.engine.columnar import ColumnarBatch, from_records
from repro.engine.declared import Identity, Sum
from repro.engine.dependencies import ShuffleDependency, identity
from repro.engine.partitioner import HashPartitioner
from repro.engine.buckets import bucket_map_output, map_output
from repro.engine.task_runtime import MIN_LOWERED_ROWS
from repro.engine.transformations import ShuffledRDD
from repro.streaming import StreamingWindowWorkload
from repro.workloads import KMeansWorkload
from repro.workloads import kmeans as kmeans_module
from repro.workloads.datagen import generate_clustered_points
from tests.conftest import build_on_demand_context, plane
from tests.engine.test_block_manager import make_bm

SUM = Sum()


def exact(value):
    """A comparable that tells ``1`` from ``1.0`` and ``0.0`` from ``-0.0``."""
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [exact(v) for v in value])
    if type(value) is float:
        return ("float", value.hex())
    return (type(value).__name__, value)


def sum_dependency(n_buckets, map_side_combine=True, partitioner=HashPartitioner):
    return ShuffleDependency(
        None, partitioner(n_buckets), (identity, SUM, SUM), map_side_combine
    )


def combined_output(batch, n_buckets):
    """``Sum.combine``'s batch as the rows of the map output the task runtime
    stores, with the records written; None where the kernel refuses."""
    combined = SUM.combine(batch, n_buckets)
    if combined is None:
        return None
    merged, sizes = combined
    return map_output(merged.to_records(), sizes), merged.length


def assert_matches_row_loop(records, n_buckets):
    dep = sum_dependency(n_buckets)
    assert dep.declared is SUM
    got = combined_output(from_records(records), n_buckets)
    assert got is not None, "the kernel refused a batch it should accept"
    want = bucket_map_output(dep, records)
    assert exact(got[0]) == exact(want[0])
    assert got[1] == want[1]


# ----------------------------------------------------------------------
# (a) The kernel equals the row loop
# ----------------------------------------------------------------------
def _keys(rng, n, spread):
    """Int keys that stress the layout.  ``dense``: a short run of ids —
    negative, or straddling 2**31 where ``hash = key & 0x7FFFFFFF`` wraps —
    which the kernel groups by counting; ``sparse``: keys far apart, which
    it sorts, but less than 2**31 apart, so no two tie on the hash; ``far``:
    also keys >= 2**31 and pairs ``k`` / ``k + 2**31`` that do tie, where
    first occurrence decides the order."""
    if spread == "dense":
        start = rng.choice([-50, 0, 2**31 - 5, -(2**40)])
        return [start + rng.randrange(12) for _ in range(n)]
    base = [rng.randrange(-(10**6), 10**6) for _ in range(6)]
    if spread == "far":
        base += [k + 2**31 for k in base[:3]] + [k - 2**31 for k in base[3:5]]
        base += [rng.randrange(2**31, 2**40), -rng.randrange(2**31, 2**40)]
    return [rng.choice(base) for _ in range(n)]


def _float(rng):
    return rng.choice([rng.uniform(-1e3, 1e3), rng.random() * 1e-9, 1e300, 0.0, 0.1])


VALUE_SHAPES = {
    "float": _float,
    "int": lambda rng: rng.randrange(-10**6, 10**6),
    # KMeans's (vector, count) and a deeper tree.
    "kmeans": lambda rng: (tuple(_float(rng) for _ in range(4)), 1),
    "nested": lambda rng: ((rng.randrange(9), (_float(rng),)), _float(rng), ()),
}


@pytest.mark.parametrize("shape", sorted(VALUE_SHAPES))
@pytest.mark.parametrize("spread", ["dense", "sparse", "far"])
@pytest.mark.parametrize("seed", range(5))
def test_buckets_equal_the_row_loop(shape, spread, seed):
    rng = random.Random(f"{shape}-{spread}-{seed}")
    n = rng.choice([1, 2, 7, 60, 400])
    make = VALUE_SHAPES[shape]
    records = [(key, make(rng)) for key in _keys(rng, n, spread)]
    assert_matches_row_loop(records, rng.choice([1, 2, 3, 8, 20]))


def test_hash_ties_keep_first_occurrence_order():
    k = 12345
    records = [(k + 2**31, 1.0), (k, 2.0), (k - 2**31, 3.0), (k, 4.0), (k + 2**31, 5.0)]
    assert_matches_row_loop(records, 4)
    output, written = combined_output(from_records(records), 4)
    # The three keys share one hash, so one bucket holds all of them.
    assert written == 3
    assert sorted(b - a for a, b in zip(output.offsets, output.offsets[1:])) == [0, 0, 0, 3]
    assert [key for key, _ in output.rows] == [k + 2**31, k, k - 2**31]


def test_both_sides_of_the_density_threshold():
    # 40 records: a key span of 320 is counted, 321 is sorted.
    for top in (319, 320):
        keys = [0, top] + [(i * 37) % (top + 1) for i in range(38)]
        assert_matches_row_loop([(k, float(i)) for i, k in enumerate(keys)], 3)


def test_one_record_and_all_one_key_batches():
    assert_matches_row_loop([(-7, ((1.5, 2.5), 1))], 3)
    assert_matches_row_loop([(3, 0.1)] * 1000, 5)
    assert_matches_row_loop([(3, 1)] * 1000, 1)


def test_float_sums_fold_left_in_stream_order():
    # A sum whose value depends on association order: pairwise or
    # sorted-segment summation would give a different last bit.
    values = [0.1, 1e16, -1e16, 0.2, 0.3, 1e-8] * 50
    records = [(i % 3, v) for i, v in enumerate(values)]
    assert_matches_row_loop(records, 2)


def test_sum_row_merge():
    assert exact(SUM(1, 2)) == exact(3)
    assert exact(SUM(((1.0, 2.0), 1), ((3.0, 4.0), 2))) == exact(((4.0, 6.0), 3))
    assert SUM((), ()) == ()
    with pytest.raises(ValueError, match="different shape"):
        SUM((1, 2), (1, 2, 3))


# ----------------------------------------------------------------------
# (b) Refusals fall back to the row loop, and still match
# ----------------------------------------------------------------------
REFUSED = {
    "negative zero": [(1, 1.0), (2, -0.0), (2, -0.0)],
    "negative zero in a tree": [(1, ((0.5, -0.0), 1)), (1, ((0.5, 1.0), 1))],
    # Python ints grow past 2**63; int64 would wrap.
    "int overflow": [(1, 2**62), (1, 2**62), (1, 2**62), (2, 1)],
    "int underflow": [(1, -(2**63)), (1, -1)],
    "list leaves": [(1, [1, 2]), (1, [3]), (2, [])],
    "float keys": [(1.5, 1.0), (1.5, 2.0), (2.5, 3.0)],
    "tuple keys": [((1, 2), 1.0), ((1, 2), 2.0)],
    "not pairs": [(1, 2.0, 3), (1, 4.0, 5)],
    "scalars": [1, 2, 3],
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_kernel_refuses(name):
    assert SUM.combine(from_records(REFUSED[name]), 3) is None


def test_kernel_refuses_an_empty_batch():
    schema = ("tuple", ("i8", "f8"))
    empty = ColumnarBatch(schema, (np.empty(0, np.int64), np.empty(0)), 0)
    assert SUM.combine(empty, 3) is None


class _OtherPartitioner(HashPartitioner):
    pass


class _OtherSum(Sum):
    """Its row merge is no longer the kernel's fold."""

    def __call__(self, a, b):
        return max(a, b)


def test_only_reduce_by_key_sum_under_a_plain_hash_partitioner_is_declared():
    assert sum_dependency(3).declared is SUM
    assert sum_dependency(3, map_side_combine=False).declared is None
    assert sum_dependency(3, partitioner=_OtherPartitioner).declared is None
    add = lambda a, b: a + b  # noqa: E731
    other = _OtherSum()
    for aggregator in [
        (identity, add, add),
        (lambda v: v + 1, SUM, SUM),  # aggregate_by_key-style create
        (identity, SUM, Sum()),
        (identity, SUM, add),
        (identity, other, other),  # a subclass may merge differently
    ]:
        dep = ShuffleDependency(None, HashPartitioner(3), aggregator, True)
        assert dep.declared is None


def _reduce(columnar, records, build=None):
    """``records`` → lowered identity map → ``reduce_by_key(Sum())``, on
    the plane the engine chooses (``columnar``) or on rows alone."""
    with plane(columnar):
        ctx = build_on_demand_context(2)
        head = ctx.parallelize(records, 2, record_size=100).map(Identity())
        reduced = head.reduce_by_key(SUM, 3) if build is None else build(head)
        t0 = ctx.now
        out = [exact(part) for part in ctx.run_job(reduced, list)]
    return out, ctx.now - t0, ctx.scheduler.stats


#: What the engine can be asked to reduce by key: the refused (key, value)
#: shapes, and two shapes the kernel accepts.
REDUCIBLE = {
    name: records for name, records in REFUSED.items()
    if name not in ("not pairs", "scalars")
}
REDUCIBLE["string keys"] = [("a", 1.0), ("b", 2.0), ("a", 3.0)]
REDUCIBLE["accepted"] = [(i % 5, ((float(i), 0.5), 1)) for i in range(40)]
ACCEPTED = ("accepted", "string keys")


@pytest.mark.parametrize("name", sorted(REDUCIBLE))
def test_engine_results_do_not_depend_on_the_plane(name):
    # Every shape holds at least two records: >= MIN_LOWERED_ROWS per partition.
    records = REDUCIBLE[name] * MIN_LOWERED_ROWS
    on, on_time, on_stats = _reduce(True, records)
    off, off_time, off_stats = _reduce(False, records)
    assert on == off
    assert on_time == off_time
    assert on_stats.task_counts() == off_stats.task_counts()
    assert off_stats.columnar_combines == 0
    assert on_stats.columnar_combines == (2 if name in ACCEPTED else 0)
    # A refused combine is not a refused chain.
    assert on_stats.columnar_fallbacks == 0


def test_undeclared_shuffles_stay_on_the_row_loop():
    records = [(i % 5, float(i)) for i in range(2 * MIN_LOWERED_ROWS)]
    builds = {
        "lambda": lambda head: head.reduce_by_key(lambda a, b: a + b, 3),
        "no map-side combine": lambda head: ShuffledRDD(
            head, HashPartitioner(3), (identity, SUM, SUM), map_side_combine=False
        ),
        "other partitioner": lambda head: ShuffledRDD(
            head, _OtherPartitioner(3), (identity, SUM, SUM), map_side_combine=True
        ),
    }
    want, _, _ = _reduce(True, records)
    for name, build in builds.items():
        got, _, stats = _reduce(True, records, build)
        assert got == want, name
        assert stats.columnar_combines == 0, name
        assert stats.columnar_chains == 2, name


def test_an_observed_head_is_still_materialised():
    """A persisted map head combines from the batch *and* caches its rows."""
    ctx = build_on_demand_context(2)
    records = [(i % 5, float(i)) for i in range(2 * MIN_LOWERED_ROWS)]
    head = ctx.parallelize(records, 2, record_size=100).map(Identity()).persist()
    first = head.reduce_by_key(SUM, 3).collect()
    assert ctx.scheduler.stats.columnar_combines == 2
    assert ctx.cached_partition_count(head) == 2
    assert exact(sorted(head.collect())) == exact(sorted(records))
    # The second pass reads the cached blocks: no chain to lower, but each
    # holds MIN_LOWERED_ROWS records, so the head combines from its sidecar.
    assert exact(head.reduce_by_key(SUM, 3).collect()) == exact(first)
    assert ctx.scheduler.stats.columnar_combines == 4


# ----------------------------------------------------------------------
# (c) Convert once, and no round trip at an unobserved map head
# ----------------------------------------------------------------------
class ConversionCounter:
    """Counts ``from_records`` / ``to_records`` calls wherever they happen."""

    def __init__(self, monkeypatch):
        self.from_rows = []
        self.to_rows = 0
        original_from = columnar.from_records
        original_to = ColumnarBatch.to_records

        def counting_from(records):
            self.from_rows.append(records)
            return original_from(records)

        def counting_to(batch):
            self.to_rows += 1
            return original_to(batch)

        for module in (columnar, task_runtime, block_manager):
            monkeypatch.setattr(module, "from_records", counting_from)
        monkeypatch.setattr(ColumnarBatch, "to_records", counting_to)


def test_kmeans_columnarises_each_cached_partition_once(monkeypatch):
    drawn = {}

    def drawing(seed, partition, *args):
        batch = generate_clustered_points(seed, partition, *args)
        drawn.setdefault(partition, []).append(batch)
        return batch

    monkeypatch.setattr(kmeans_module, "generate_clustered_points", drawing)
    ctx = build_on_demand_context(2)
    kmeans = KMeansWorkload(
        ctx, data_gb=0.2, num_points=800, k=4, dim=4, partitions=4, iterations=3, seed=11
    )
    kmeans.load()
    counter = ConversionCounter(monkeypatch)
    kmeans.run()
    stats = ctx.scheduler.stats
    assert stats.columnar_chains == 12 and stats.columnar_fallbacks == 0
    assert stats.columnar_combines == 12
    # 3 iterations x 4 tasks read the 4 cached ``points`` blocks without a
    # single conversion: the points were drawn as columns, and each block's
    # sidecar is the batch its generator drew.
    assert counter.from_rows == []
    # Nobody observes the assignment map's output: it is never rows.  Its
    # combined map outputs cross the shuffle as columns, and each of the
    # 3 x 4 reducers — under MIN_LOWERED_ROWS records — turns its one
    # slice of them into rows.
    assert counter.to_rows == 12
    assert sorted(drawn) == [0, 1, 2, 3]
    assert all(len(batches) == 1 for batches in drawn.values())
    prefix = f"rdd_{kmeans.points.rdd_id}_"
    seen = []
    for worker in ctx.cluster.live_workers():
        store = worker.block_manager
        for block in store.memory_block_ids():
            if block.startswith(prefix):
                partition = int(block[len(prefix):])
                rows = store.get(block)[0]
                assert store.columnar(block, rows) is drawn[partition][0]
                seen.append(partition)
    assert sorted(seen) == [0, 1, 2, 3]
    assert counter.from_rows == []


# ----------------------------------------------------------------------
# (d) The sidecar lives and dies with its block entry
# ----------------------------------------------------------------------
ROWS = [(i, float(i)) for i in range(10)]


def test_sidecar_is_converted_once_and_only_for_the_resident_rows():
    _, store = make_bm()
    block = block_id_for(3, 0)
    store.put(block, ROWS, 400)
    batch = store.columnar(block, ROWS)
    assert batch.to_records() == ROWS
    assert store.columnar(block, ROWS) is batch
    # Rows that are not the entry's payload (a stale read) are converted
    # but never cached against it.
    other = list(ROWS)
    assert store.columnar(block, other) is not batch
    assert store.columnar(block, ROWS) is batch
    assert store.columnar("rdd_9_9", ROWS) is not batch
    # A refusal is not an error and caches nothing.
    store.put("rdd_4_0", ["a", b"b"], 100)
    assert store.columnar("rdd_4_0", store.get("rdd_4_0")[0]) is None


LOSSES = {
    "lru drop": lambda worker, store, block: store.put("rdd_8_0", [0], 900),
    "spill": lambda worker, store, block: store.put("rdd_8_0", [0], 900),
    "remove": lambda worker, store, block: store.remove(block),
    "remove_rdd": lambda worker, store, block: store.remove_rdd(3),
    "overwrite put": lambda worker, store, block: store.put(block, list(ROWS), 400),
    "oversized put": lambda worker, store, block: store.put(block, list(ROWS), 10**6),
    "revocation": lambda worker, store, block: worker.kill(),
}


@pytest.mark.parametrize("loss", sorted(LOSSES))
def test_no_batch_outlives_its_block_entry(loss):
    worker, store = make_bm()
    block = block_id_for(3, 0)
    store.put(block, ROWS, 400, spill=(loss == "spill"))
    ref = weakref.ref(store.columnar(block, ROWS))
    gc.collect()
    assert ref() is not None, "the sidecar should live while the entry does"
    LOSSES[loss](worker, store, block)
    gc.collect()
    assert ref() is None
    if loss == "spill":
        # The rows survive on disk; a read from there caches no batch.
        data, _nbytes, tier = store.get(block)
        assert (data, tier) == (ROWS, "disk")
        assert store.columnar(block, data) is not store.columnar(block, data)


def _track_sidecars(monkeypatch):
    """Weak set of every sidecar a block manager takes from now on: the
    batches it converts, and those a put seeds (a source drawn as columns)."""
    live = weakref.WeakSet()
    original = block_manager.from_records
    original_put = block_manager.BlockManager.put

    def tracking(records):
        batch = original(records)
        if batch is not None:
            live.add(batch)
        return batch

    def seeding(self, block_id, data, nbytes, spill=False, batch=None):
        if batch is not None:
            live.add(batch)
        return original_put(self, block_id, data, nbytes, spill, batch)

    monkeypatch.setattr(block_manager, "from_records", tracking)
    monkeypatch.setattr(block_manager.BlockManager, "put", seeding)
    return live


def test_unpersist_and_worker_revocation_release_sidecars(monkeypatch):
    ctx = build_on_demand_context(2)
    rows = [(i, float(i)) for i in range(4 * MIN_LOWERED_ROWS)]
    cached = ctx.parallelize(rows, 4, record_size=100).persist()
    cached.count()
    live = _track_sidecars(monkeypatch)
    lowered = cached.map(Identity())
    for _ in range(2):
        lowered.reduce_by_key(SUM, 2).collect()
    gc.collect()
    assert len(live) == 4  # one sidecar per cached block, made once
    victim = ctx.cluster.live_workers()[0]
    held = len(victim.block_manager.memory_block_ids())
    assert held > 0
    ctx.cluster.force_revoke([victim])
    gc.collect()
    assert len(live) == 4 - held
    cached.unpersist()
    gc.collect()
    assert len(live) == 0


def test_streaming_sidecars_never_outnumber_cached_blocks(monkeypatch):
    """100 sliding windows over a persisted source: every batch's blocks are
    unpersisted as the window passes, and their sidecars go with them."""
    ctx = build_on_demand_context(2)
    live = _track_sidecars(monkeypatch)
    workload = StreamingWindowWorkload(
        ctx, records_per_batch=4 * MIN_LOWERED_ROWS, partitions=4, num_batches=100, window=3,
        slide=1, num_keys=8, record_size=1000,
    )
    peak_sidecars = peak_blocks = 0
    for _ in range(workload.num_batches):
        workload.ssc.run_batch()
        gc.collect()
        blocks = sum(
            len(w.block_manager.memory_block_ids()) for w in ctx.cluster.live_workers()
        )
        assert len(live) <= blocks
        peak_sidecars = max(peak_sidecars, len(live))
        peak_blocks = max(peak_blocks, blocks)
    assert ctx.scheduler.stats.columnar_combines > 0
    assert peak_sidecars > 0, "no window read a cached source block"
    # The cache itself is bounded by the window, not by the stream.
    assert peak_blocks <= 4 * (workload.window + 1)
