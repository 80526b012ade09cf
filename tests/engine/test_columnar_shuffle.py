"""Batches cross the shuffle: a declared ``Sum``'s map output stays columns.

Contracts (see :mod:`repro.engine.buckets`, :mod:`repro.engine.shuffle` and
:mod:`repro.engine.columnar`):

- a fetch plan over batch map outputs of one schema is one reduce-major
  batch, and each reducer's slice of it holds exactly the records of the
  per-map slices, in map order — also after the epoch moves; a shuffle
  that mixes rows and batches serves row slices, as a row shuffle does;
- the reducer's ``Sum`` merge and the two-sided cogroup, run by sort, equal
  the row path through ``to_records()`` and carry the schema
  ``from_records`` infers from its rows — or they stay on rows (a refusal,
  an input under ``MIN_LOWERED_ROWS``) without converting anything;
- a chain with a kernel-less stage never gets a batch;
- a cached block whose rows cannot columnarise is scanned once;
- ``take`` is the one gather: ``select``, slices and ragged levels agree
  with the rows they stand for.
"""

from __future__ import annotations

import pathlib
import random
import re

import numpy as np
import pytest

from repro.cluster.worker import Worker
from repro.engine import block_manager, columnar
from repro.engine.columnar import (
    MIN_LOWERED_ROWS, ColumnarBatch, cogroup, concat, from_records, take,
)
from repro.engine.declared import Sum
from repro.engine.dependencies import ShuffleDependency, identity
from repro.engine.partitioner import HashPartitioner
from repro.engine.buckets import bucket_map_output, map_output, merge_reduce_buckets
from repro.engine.shuffle import ShuffleManager
from repro.engine.transformations import CoGroupedRDD
from repro.market.instance import Instance
from repro.workloads import PageRankWorkload
from tests.conftest import Declared, build_on_demand_context, plane
from tests.engine.test_block_manager import make_bm
from tests.engine.test_columnar_combine import ConversionCounter, exact

SUM = Sum()


def _keys(rng, n):
    """Int keys with duplicates, negatives, and ``k`` / ``k + 2**31`` /
    ``k - 2**31`` triples that share one hash."""
    base = [rng.randrange(-(10**5), 10**5) for _ in range(40)]
    base += [k + 2**31 for k in base[:4]] + [k - 2**31 for k in base[4:7]]
    return [rng.choice(base) for _ in range(n)]


VALUES = {
    "float": lambda rng: rng.uniform(-1e3, 1e3),
    "int": lambda rng: rng.randrange(-(10**6), 10**6),
    "kmeans": lambda rng: ((rng.random(), rng.uniform(-5, 5)), 1),
}


def _pairs(rng, n, shape):
    make = VALUES[shape]
    return [(key, make(rng)) for key in _keys(rng, n)]


def _shuffle(n_maps, n_reduce):
    ctx = build_on_demand_context(1)
    rdd = ctx.parallelize(list(range(n_maps)), n_maps, record_size=100)
    dep = ShuffleDependency(rdd, HashPartitioner(n_reduce), (identity, SUM, SUM), True)
    manager = ShuffleManager()
    workers = []
    for i in range(2):
        worker = Worker(f"w-{i}", Instance(f"i-{i}", "m", "r3.large", 0.1, 0.0))
        manager.register_worker(worker)
        workers.append(worker)
    return manager, dep, workers


def _register(manager, dep, workers, map_id, records, as_batch):
    """Register ``records``' map output, laid out by the kernel or the row loop."""
    if as_batch:
        output = map_output(*SUM.combine(from_records(records), dep.num_reduce_partitions))
    else:
        output, _written = bucket_map_output(dep, records)
    manager.register_map_output(dep, map_id, workers[map_id % 2], output, 100)


def _pair_of_shuffles(inputs, n_reduce, batch_maps):
    """The same map inputs shuffled twice: ``batch_maps`` of them as the
    kernel's batches, and all of them as the row loop's rows (the oracle)."""
    shuffles = []
    for batches in (batch_maps, ()):
        manager, dep, workers = _shuffle(len(inputs), n_reduce)
        for map_id, records in enumerate(inputs):
            _register(manager, dep, workers, map_id, records, map_id in batches)
        shuffles.append((manager, dep, workers))
    return shuffles


# ----------------------------------------------------------------------
# The fetch plan
# ----------------------------------------------------------------------
def _assert_fetches_agree(batch_side, row_side, n_reduce):
    (manager, dep, workers), (ref, ref_dep, ref_workers) = batch_side, row_side
    for reduce_id in range(n_reduce):
        for w in range(2):
            buckets, local, remote = manager.fetch(dep, reduce_id, workers[w])
            want, want_local, want_remote = ref.fetch(ref_dep, reduce_id, ref_workers[w])
            assert (local, remote) == (want_local, want_remote)
            assert len(buckets) <= 1
            assert all(type(bucket) is ColumnarBatch for bucket in buckets)
            got = [record for bucket in buckets for record in bucket.to_records()]
            assert exact(got) == exact([record for bucket in want for record in bucket])


@pytest.mark.parametrize("seed", range(4))
def test_a_transposed_plan_slices_like_the_per_map_slices(seed):
    rng = random.Random(f"plan-{seed}")
    n_reduce = rng.choice([1, 3, 7])
    inputs = [_pairs(rng, rng.choice([5, 60, 200]), "kmeans") for _ in range(4)]
    batch_side, row_side = _pair_of_shuffles(inputs, n_reduce, range(4))
    _assert_fetches_agree(batch_side, row_side, n_reduce)
    # A new output for map 2 moves the epoch: the next plan is rebuilt
    # from the outputs as they are now.
    replacement = _pairs(rng, 80, "kmeans")
    for (manager, dep, workers), as_batch in ((batch_side, True), (row_side, False)):
        built = manager.plans_built
        _register(manager, dep, workers, 2, replacement, as_batch)
        manager.fetch(dep, 0, workers[0])
        assert manager.plans_built == built + 1
    _assert_fetches_agree(batch_side, row_side, n_reduce)


def test_a_mixed_shuffle_serves_row_slices():
    rng = random.Random("mixed")
    inputs = [_pairs(rng, 90, "float") for _ in range(3)]
    (manager, dep, workers), (ref, ref_dep, ref_workers) = _pair_of_shuffles(inputs, 4, (0, 2))
    for reduce_id in range(4):
        buckets = manager.fetch(dep, reduce_id, workers[0])[0]
        want = ref.fetch(ref_dep, reduce_id, ref_workers[0])[0]
        assert all(type(bucket) is tuple for bucket in buckets)
        assert exact(buckets) == exact(want)


# ----------------------------------------------------------------------
# The reducer's Sum merge, by sort
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", sorted(VALUES))
@pytest.mark.parametrize("seed", range(5))
def test_the_sort_merge_equals_the_row_merge(shape, seed):
    rng = random.Random(f"merge-{shape}-{seed}")
    n_reduce = rng.choice([1, 2, 3])
    inputs = [_pairs(rng, rng.choice([40, 150, 300]), shape) for _ in range(3)]
    (manager, dep, workers), (ref, ref_dep, ref_workers) = _pair_of_shuffles(
        inputs, n_reduce, range(3)
    )
    lowered = 0
    for reduce_id in range(n_reduce):
        buckets = manager.fetch(dep, reduce_id, workers[0])[0]
        rows = merge_reduce_buckets(ref_dep, ref.fetch(ref_dep, reduce_id, ref_workers[0])[0])
        # A row caller gets the row merge's very rows.
        assert exact(merge_reduce_buckets(dep, buckets)) == exact(rows)
        got = merge_reduce_buckets(dep, buckets, as_batch=True)
        if len(rows) and len(buckets[0]) >= MIN_LOWERED_ROWS:
            lowered += 1
            assert type(got) is ColumnarBatch
            assert got.schema == from_records(rows).schema
            got = got.to_records()
        assert exact(got) == exact(rows)
    assert lowered


def test_hash_ties_merge_in_first_occurrence_order():
    k = 777
    keys = [k + 2**31, k, k - 2**31, -3, k, k + 2**31] * 8
    records = [(key, float(i)) for i, key in enumerate(keys)]
    dep = _shuffle(1, 1)[1]
    got = merge_reduce_buckets(dep, [from_records(records)], as_batch=True)
    assert [key for key, _ in got.to_records()][:3] == [k + 2**31, k, k - 2**31]
    assert exact(got.to_records()) == exact(merge_reduce_buckets(dep, [tuple(records)]))


@pytest.mark.parametrize("values", [
    [0.5, -0.0, 1.0],                 # -0.0: the zero seed would show
    [2**62, 2**62, 2**62, 1],         # int64 would wrap where ints grow
])
def test_a_refused_merge_stays_on_rows(values):
    records = [(i % 5, values[i % len(values)]) for i in range(4 * MIN_LOWERED_ROWS)]
    dep = _shuffle(1, 1)[1]
    got = merge_reduce_buckets(dep, [from_records(records)], as_batch=True)
    assert type(got) is list
    assert exact(got) == exact(merge_reduce_buckets(dep, [tuple(records)]))


def test_a_small_merge_converts_only_its_input(monkeypatch):
    records = [(i % 7, float(i)) for i in range(MIN_LOWERED_ROWS - 1)]
    batch = from_records(records)
    dep = _shuffle(1, 1)[1]
    counted = ConversionCounter(monkeypatch)
    got = merge_reduce_buckets(dep, [batch], as_batch=True)
    assert exact(got) == exact(merge_reduce_buckets(dep, [tuple(records)]))
    assert (counted.from_rows, counted.to_rows) == ([], 1)


# ----------------------------------------------------------------------
# The two-sided cogroup, by sort
# ----------------------------------------------------------------------
class _Runtime:
    """Serves each parent's partition as a batch to a batch caller and as
    rows otherwise — the two ways ``TaskRuntime`` can answer."""

    def __init__(self, data):
        self.data = data

    def iterator(self, rdd, split, as_batch=False):
        data = self.data[rdd.rdd_id]
        if type(data) is ColumnarBatch and not as_batch:
            return data.to_records()
        return data

    def batch_iterator(self, rdd, split):
        return self.iterator(rdd, split, True)


def _cogroup_both_ways(left, right):
    """``(by sort, by the row loop)`` for two pre-partitioned sides."""
    ctx = build_on_demand_context(1)
    partitioner = HashPartitioner(1)
    parents = [ctx.parallelize([], 1), ctx.parallelize([], 1)]
    for parent in parents:
        parent.partitioner = partitioner
    grouped = CoGroupedRDD(ctx, parents, partitioner)
    runtime = _Runtime({parents[0].rdd_id: left, parents[1].rdd_id: right})
    return grouped.compute(0, runtime, as_batch=True), grouped.compute(0, runtime)


SIDE_VALUES = {
    "float": lambda rng: rng.random(),
    "int": lambda rng: rng.randrange(-50, 50),
    "list": lambda rng: [rng.randrange(100) for _ in range(rng.randrange(4))],
    "tuple": lambda rng: (rng.random(), [rng.randrange(9)] * rng.randrange(1, 3)),
}


@pytest.mark.parametrize("right_shape", sorted(SIDE_VALUES))
@pytest.mark.parametrize("left_shape", sorted(SIDE_VALUES))
@pytest.mark.parametrize("seed", range(3))
def test_the_sort_cogroup_equals_the_row_cogroup(left_shape, right_shape, seed):
    rng = random.Random(f"cogroup-{left_shape}-{right_shape}-{seed}")
    sides = []
    for shape in (left_shape, right_shape):
        make = SIDE_VALUES[shape]
        # Duplicate keys on a side, negatives, and hash ties.
        records = [(key, make(rng)) for key in _keys(rng, rng.choice([40, 120]))]
        sides.append(from_records(records))
    got, rows = _cogroup_both_ways(*sides)
    assert type(got) is ColumnarBatch
    assert got.schema == from_records(rows).schema
    assert exact(got.to_records()) == exact(rows)


def _empty_side():
    return ColumnarBatch(("tuple", ("i8", "f8")), (np.empty(0, np.int64), np.empty(0)), 0)


def _vacuous_side(n):
    """Every adjacency list empty: ``from_records`` would not say ``i8``."""
    keys = np.arange(n, dtype=np.int64)
    return ColumnarBatch(
        ("tuple", ("i8", ("list", "i8"))),
        (keys, (np.zeros(n, np.int64), np.empty(0, np.int64))),
        n,
    )


@pytest.mark.parametrize(
    "case", ["empty side", "vacuous list", "small side", "rows side", "float keys"]
)
def test_a_cogroup_that_cannot_promise_its_schema_stays_on_rows(case):
    n = 2 * MIN_LOWERED_ROWS
    right = from_records([(i, float(i)) for i in range(n)])
    left = {
        "empty side": _empty_side(),
        "vacuous list": _vacuous_side(n),
        "small side": from_records([(i, 1.0) for i in range(MIN_LOWERED_ROWS - 1)]),
        "rows side": [(i, 1.0) for i in range(n)],
        "float keys": from_records([(float(i), 1.0) for i in range(n)]),
    }[case]
    if case == "empty side":
        assert cogroup(left, right) is None
        left = []
    got, rows = _cogroup_both_ways(left, right)
    assert type(got) is list
    assert exact(got) == exact(rows)


def test_pagerank_cogroups_by_sort_with_the_row_planes_results(monkeypatch):
    sorted_cogroups = []

    def counting(left, right):
        grouped = cogroup(left, right)
        sorted_cogroups.append(grouped is not None)
        return grouped

    results = {}
    monkeypatch.setattr("repro.engine.transformations.cogroup", counting)
    for knob in ("on", "0"):
        with plane(knob == "on"):
            ctx = build_on_demand_context(2)
            ranks = PageRankWorkload(
                ctx, data_gb=0.2, num_edges=2_400, num_vertices=400, partitions=4,
                iterations=3, seed=5,
            ).run()
        results[knob] = (exact(sorted(ranks.items())), ctx.now, ctx.scheduler.stats)
    assert results["on"][:2] == results["0"][:2]
    # 3 iterations x 4 partitions, every one by sort; none on the row plane.
    assert sorted_cogroups == [True] * 12
    assert results["on"][2].columnar_fallbacks == 0


# ----------------------------------------------------------------------
# Bypass paths convert nothing
# ----------------------------------------------------------------------
def test_a_chain_with_a_kernel_less_stage_gets_no_batch(monkeypatch):
    ctx = build_on_demand_context(2)
    cached = ctx.parallelize([(i, float(i)) for i in range(4 * MIN_LOWERED_ROWS)], 2).persist()
    cached.count()
    kernel_inputs = []

    def kernel(batch):
        kernel_inputs.append(batch)
        return batch

    counted = ConversionCounter(monkeypatch)
    chain = cached.map(lambda r: r).map(Declared(lambda r: r, kernel))
    assert sorted(chain.collect()) == sorted(cached.collect())
    assert kernel_inputs == []
    # No sidecar was asked for: the cached rows streamed as they are.
    assert counted.from_rows == []
    assert ctx.scheduler.stats.columnar_chains == 0


def test_a_refused_sidecar_is_remembered(monkeypatch):
    _worker, store = make_bm()
    rows = [("a", 1.0), (b"b", 2.0)]  # str and bytes keys in one column
    store.put("rdd_1_0", rows, 10)
    calls = []

    def counting(records):
        calls.append(records)
        return columnar.from_records(records)

    monkeypatch.setattr(block_manager, "from_records", counting)
    assert store.columnar("rdd_1_0", rows) is None
    assert store.columnar("rdd_1_0", rows) is None
    assert len(calls) == 1


# ----------------------------------------------------------------------
# One gather, one hash mask
# ----------------------------------------------------------------------
def _ragged_rows(rng, n):
    return [
        (rng.randrange(-9, 9), [[rng.random()] * rng.randrange(3) for _ in range(rng.randrange(3))])
        for _ in range(n)
    ] + [(1, [[0.5]])]


@pytest.mark.parametrize("seed", range(4))
def test_take_select_slice_and_concat_agree_with_the_rows(seed):
    rng = random.Random(f"take-{seed}")
    rows = _ragged_rows(rng, rng.choice([3, 20, 70]))
    batch = from_records(rows)
    idx = np.array([rng.randrange(len(rows)) for _ in range(2 * len(rows))], dtype=np.int64)
    taken = ColumnarBatch(batch.schema, take(batch.schema, batch.data, idx), len(idx))
    assert taken.to_records() == [rows[i] for i in idx]
    mask = np.array([rng.random() < 0.5 for _ in rows])
    assert batch.select(mask).to_records() == [r for r, keep in zip(rows, mask) if keep]
    start = rng.randrange(len(rows))
    stop = rng.randrange(start, len(rows) + 1)
    assert batch.slice(start, stop).to_records() == rows[start:stop]
    parts = [batch.slice(0, start), batch.slice(start, stop), batch.slice(stop, len(rows))]
    assert concat(parts).to_records() == rows


def test_the_hash_mask_is_named_once():
    src = pathlib.Path(columnar.__file__).resolve().parents[1]
    restated = [
        path.relative_to(src).as_posix()
        for path in sorted(src.rglob("*.py"))
        if re.search(r"0x7FFFFFFF\b", path.read_text())
    ]
    assert restated == ["engine/partitioner.py"]
