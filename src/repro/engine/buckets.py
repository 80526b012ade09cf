"""The shuffle's bucket layout: map-side write, reduce-side read.

A map output is one flat file plus an offset index, the layout of Spark's
sort-based shuffle: a :class:`MapOutput` holds the task's rows in bucket
order, as an immutable tuple, and R + 1 offsets, bucket ``r`` being
``rows[offsets[r]:offsets[r + 1]]``.  :func:`map_output` is the one
constructor.  The layout — which reducer a key goes to, in what order
records leave a bucket — is defined once, here: :func:`bucket_map_output`
writes it, a fetch (``ShuffleManager.fetch``) slices the non-empty buckets
out (tuples too), and :func:`merge_reduce_buckets` reads them.

A declared combine's map output may hold columns instead (``dep.declared``,
a ``Sum`` or a ``Group``): the
:class:`~repro.engine.columnar.ColumnarBatch` its ``combine`` laid out in
the same bucket order (:func:`~repro.engine.partitioner.key_order`, the one
definition of that order for columns), never turned into rows on the map
side.  When every map output of a shuffle is a batch of one schema, the
fetch plan holds them as one reduce-major batch (:func:`reduce_major`:
bucket after bucket, map order within a bucket), and a fetch is one slice
of it.  A shuffle that mixes rows and batches turns its batches into
the rows the row loop stores (``declared.rows``) in the plan and slices
per map output, as a row shuffle does.  Bytes are charged from the record
size either way.

Stored shuffle state is kept out of the cyclic collector's way: CPython
untracks a tuple whose items are all untracked, so a retained file of
atomic-valued records — and ``group_by_key``'s ``(key, tuple(values))``
combiners — costs a full collection nothing.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.engine.columnar import MIN_LOWERED_ROWS, ColumnarBatch, merged_codes
from repro.engine.declared import Group
from repro.engine.dependencies import ShuffleDependency
from repro.engine.partitioner import HASH_MASK, HashPartitioner, stable_hash


class MapOutput(NamedTuple):
    """One map task's shuffle file: rows in bucket order plus an offset index.

    Two tuples whatever the reducer count.  Neither can change once
    written, and when every record is made of atomic values the collector
    untracks them both, so a retained map output costs a full collection
    nothing.  A declared combine's batch stands in for the rows tuple as
    it is (one object with a few arrays).
    """

    rows: Union[Tuple[Any, ...], ColumnarBatch]
    #: R + 1 ascending offsets: bucket r is ``rows[offsets[r]:offsets[r + 1]]``.
    offsets: Tuple[int, ...]


def map_output(rows: Union[Iterable[Any], ColumnarBatch], sizes: Iterable[int]) -> MapOutput:
    """The :class:`MapOutput` of ``rows`` (records, or a batch) already in
    bucket order, given each bucket's size."""
    if type(rows) is not ColumnarBatch:
        rows = tuple(rows)
    return MapOutput(rows, tuple(accumulate(sizes, initial=0)))


#: Missing-key sentinel for the combine loops (one dict lookup per record
#: instead of a membership probe plus a read).
_ABSENT = object()


def hash_sort_key(kv):
    """``stable_hash`` of a pair's key, with the int fast path inlined."""
    k = kv[0]
    if type(k) is int:
        return k & HASH_MASK
    return stable_hash(k)


def bucket_map_output(dep: ShuffleDependency, records: List[Any]) -> Tuple[MapOutput, int]:
    """Lay one map partition out as its :class:`MapOutput`.

    Returns ``(output, records_written)``.  Records keep their order within
    a bucket; with map-side combine a bucket holds one combiner per
    distinct key, in hash order — a declared group's as ``(key,
    tuple(values))``.
    """
    n_buckets = dep.num_reduce_partitions
    partitioner = dep.partitioner
    combine = dep.map_side_combine
    if combine:
        create, merge_value, _merge_combiners = dep.aggregator
        # Combine into one table, then distribute: the partitioner runs
        # once per distinct key instead of once per record, and tiny
        # buckets skip the sort.  Within a bucket the insertion order
        # (first key occurrence) and merged values are exactly the
        # per-bucket-table walk's, and the stable sort preserves it for
        # hash ties — the buckets are bit-identical to the seed's.
        combined: Dict[Any, Any] = {}
        get = combined.get
        for key, value in records:
            prev = get(key, _ABSENT)
            combined[key] = (
                create(value) if prev is _ABSENT else merge_value(prev, value)
            )
        if type(dep.declared) is Group:
            # The lists were this task's alone; the file keeps them frozen.
            records = zip(combined, map(tuple, combined.values()))
        else:
            records = combined.items()
    buckets: List[List[Any]] = [[] for _ in range(n_buckets)]
    # ``num_reduce_partitions`` is the partitioner's own partition count,
    # so a plain HashPartitioner's bucket choice can be inlined into the
    # per-record loop (no function call per record).
    if type(partitioner) is HashPartitioner:
        mask = HASH_MASK
        for record in records:
            key = record[0]
            if type(key) is int:
                buckets[(key & mask) % n_buckets].append(record)
            else:
                buckets[stable_hash(key) % n_buckets].append(record)
    else:
        pf = partitioner.partition_for
        for record in records:
            buckets[pf(record[0])].append(record)
    if combine:
        for bucket in buckets:
            if len(bucket) > 1:
                bucket.sort(key=hash_sort_key)
    output = map_output(chain.from_iterable(buckets), map(len, buckets))
    return output, len(output.rows)


def merge_reduce_buckets(
    dep: ShuffleDependency, buckets: List[Any], as_batch: bool = False
) -> Any:
    """One reducer's records from its fetched buckets (the non-empty ones,
    in map order).

    With an aggregator the values merge per key and leave in hash order;
    without one the buckets concatenate untouched.  A declared group's
    stored tuples are never handed on: each key's first one is copied into
    a fresh list, which the rest extend.

    From a transposed plan the fetch is one batch slice (a declared
    combine's combiners from every map).  It merges by sort
    (``dep.declared.merge``) when the caller takes a batch (``as_batch``)
    and it holds at least :data:`~repro.engine.columnar.MIN_LOWERED_ROWS`
    records — exactly this function's output, keys in hash order with
    first occurrence breaking hash ties.  Otherwise — a smaller input, a
    row caller, or a refusal — it becomes rows here and merges like any
    other bucket.
    """
    declared = dep.declared
    if buckets and type(buckets[0]) is ColumnarBatch:
        (batch,) = buckets
        if as_batch and batch.length >= MIN_LOWERED_ROWS:
            merged = declared.merge(batch)
            if merged is not None:
                return merged
        buckets = [batch.to_records()]
    if dep.aggregator is None:
        out: List[Any] = []
        for bucket in buckets:
            out.extend(bucket)
        return out
    create, merge_value, merge_combiners = dep.aggregator
    merged: Dict[Any, Any] = {}
    get = merged.get
    if type(declared) is Group:
        for bucket in buckets:
            for key, values in bucket:
                prev = get(key, _ABSENT)
                merged[key] = (
                    list(values) if prev is _ABSENT else merge_combiners(prev, values)
                )
    elif dep.map_side_combine:
        # Map side already produced combiners.
        for bucket in buckets:
            for key, value in bucket:
                prev = get(key, _ABSENT)
                merged[key] = (
                    value if prev is _ABSENT else merge_combiners(prev, value)
                )
    else:
        for bucket in buckets:
            for key, value in bucket:
                prev = get(key, _ABSENT)
                merged[key] = (
                    create(value) if prev is _ABSENT else merge_value(prev, value)
                )
    return sorted(merged.items(), key=hash_sort_key)


def reduce_major(outputs: List[MapOutput], n_reduce: int) -> Optional[MapOutput]:
    """The shuffle's map outputs as one reduce-major batch, when every one
    holding records is a batch of one schema; else None.

    Bucket ``r`` of the result holds bucket ``r`` of every map output, in
    map order.  Each map output's records are scattered straight to their
    places, so the batch is the only copy made.
    """
    held = [output for output in outputs if output.offsets[-1]]
    if not held or any(type(rows) is not ColumnarBatch for rows, _off in held):
        return None
    schema = held[0].rows.schema
    if any(rows.schema != schema for rows, _off in held):
        return None
    counts = np.array([np.diff(off) for _rows, off in held])
    sizes = counts.sum(axis=0)
    # Bucket r of map m starts after bucket r of every earlier map.
    starts = (np.cumsum(sizes) - sizes) + (np.cumsum(counts, axis=0) - counts)
    places = [
        np.repeat(starts[m] - off[:-1], counts[m]) + np.arange(off[-1])
        for m, (_rows, off) in enumerate(held)
    ]
    total = int(sizes.sum())
    data = _scatter(schema, [rows.data for rows, _off in held], places, total)
    return map_output(ColumnarBatch(schema, data, total), sizes.tolist())


def _scatter(schema: Any, trees: List[Any], places: List[np.ndarray], n: int) -> Any:
    """One column tree of ``n`` records: record ``j`` of ``trees[i]`` at
    ``places[i][j]`` (together the places cover ``range(n)`` once)."""
    if type(schema) is str:
        if schema == "s":
            codes, words = merged_codes(trees)
            return _scatter("i8", codes, places, n), words
        out = np.empty(n, dtype=trees[0].dtype)
        for column, place in zip(trees, places):
            out[place] = column
        return out
    if schema[0] == "tuple":
        return tuple(
            _scatter(child, [tree[i] for tree in trees], places, n)
            for i, child in enumerate(schema[1])
        )
    # A ragged level: each record's list moves to its record's list start.
    counts = _scatter("i8", [tree[0] for tree in trees], places, n)
    starts = np.cumsum(counts) - counts
    child_places = [
        np.repeat(starts[place] - (np.cumsum(lengths) - lengths), lengths)
        + np.arange(int(lengths.sum()))
        for (lengths, _child), place in zip(trees, places)
    ]
    child = _scatter(schema[1], [tree[1] for tree in trees], child_places, int(counts.sum()))
    return counts, child
