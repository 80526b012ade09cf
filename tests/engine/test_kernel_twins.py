"""Every batch kernel against its row twin, on generated records.

The row plane is what the engine falls back to and what it chooses below
``MIN_LOWERED_ROWS``, so a kernel is only correct if, for any records
``from_records`` accepts, ``kernel(batch).to_records()`` equals the row
function's output bit for bit (floats compared by ``float.hex``, so
``-0.0`` is not ``0.0``).  A kernel may instead refuse the batch with
``ColumnarUnsupported``: the chain then runs on rows, which is also
correct.  Covered: the workloads' ``batch_fn`` twins and the built-in
kernels of the fusable transformations.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import ColumnarUnsupported, from_records
from repro.engine.transformations import (
    FilteredRDD,
    PartitionIndexedRDD,
    SampledRDD,
    UnionRDD,
    ZipWithIndexRDD,
)
from repro.streaming.workloads import _identity, _identity_batch
from repro.workloads import kmeans, pagerank
from tests.conftest import build_on_demand_context
from tests.engine.test_columnar_combine import exact

I8 = st.integers(-(2**63), 2**63 - 1)
F8 = st.floats(allow_nan=True, allow_infinity=True)
SMALL = st.integers(-50, 50)


def _values(schema):
    """A strategy for one value of ``schema`` (the columnar schema tree)."""
    if schema == "i8":
        return I8
    if schema == "f8":
        return F8
    if schema[0] == "tuple":
        return st.tuples(*map(_values, schema[1]))
    return st.lists(_values(schema[1]), max_size=4)


SCHEMAS = st.recursive(
    st.sampled_from(["i8", "f8"]),
    lambda child: st.one_of(
        st.tuples(st.just("tuple"), st.lists(child, min_size=1, max_size=3).map(tuple)),
        st.tuples(st.just("list"), child),
    ),
    max_leaves=5,
)


def _records(schema, max_size=40):
    return st.lists(_values(schema), min_size=1, max_size=max_size)


ANY_RECORDS = SCHEMAS.flatmap(_records)
#: ``(i8 key, payload)`` pairs, for the filter's key-parity predicate.
KEYED_RECORDS = SCHEMAS.flatmap(
    lambda payload: _records(("tuple", ("i8", payload)))
)


def assert_twins(kernel, rows_of, records):
    """``kernel`` over ``records`` as a batch equals ``rows_of(records)``.

    Records ``from_records`` refuses never reach a kernel; a kernel that
    refuses its batch hands the records to the row plane, so that passes
    too, whatever the row function then does with them.
    """
    batch = from_records(records)
    if batch is None:
        return
    try:
        out = kernel(batch)
    except ColumnarUnsupported:
        return
    assert exact(out.to_records()) == exact(rows_of(records))


# ----------------------------------------------------------------------
# Workload twins
# ----------------------------------------------------------------------
POINTS = st.integers(1, 4).flatmap(
    lambda dim: st.tuples(
        st.lists(st.tuples(*[F8] * dim), min_size=1, max_size=4),
        _records(("tuple", ("f8",) * dim)),
    )
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan points by design
@settings(max_examples=60, deadline=None)
@given(POINTS)
def test_kmeans_assignment(case):
    centroids, points = case
    assert_twins(
        lambda batch: kmeans._assign_batch(batch, centroids),
        lambda rows: [(kmeans._closest(p, centroids), (p, 1)) for p in rows],
        points,
    )


def _map_values(fn):
    return lambda rows: [(k, fn(v)) for k, v in rows]


@settings(max_examples=60, deadline=None)
@given(_records(("tuple", ("i8", ("list", "i8")))))
def test_pagerank_initial_ranks(links):
    assert_twins(pagerank._init_ranks_batch, _map_values(pagerank._init_rank), links)


@settings(max_examples=60, deadline=None)
@given(_records(("tuple", ("i8", "f8"))))
def test_pagerank_rank_update(totals):
    assert_twins(pagerank._rank_update_batch, _map_values(pagerank._rank_update), totals)


#: Any float, or one of the ordinary magnitudes ranks take, whose shares
#: ``rank / len(dsts)`` are rarely exact.
RANKS = st.one_of(F8, st.floats(0.01, 100.0))


def _cogrouped(groups, adjacency, ranks):
    """Cogrouped ``(src, ([dsts, ...], [rank, ...]))`` records."""
    return st.lists(
        st.tuples(
            SMALL,
            st.tuples(
                st.lists(st.lists(SMALL, min_size=adjacency, max_size=8), max_size=groups),
                st.lists(RANKS, max_size=ranks),
            ),
        ),
        min_size=1,
        max_size=40,
    )


#: Mostly what a cogroup of grouped links with unique ranks yields (at most
#: one non-empty adjacency list and one rank per key), which the kernel
#: takes; sometimes extra groups, extra ranks or an empty adjacency list,
#: which it must refuse.
COGROUPED = st.one_of(_cogrouped(1, 1, 1), _cogrouped(1, 1, 1), _cogrouped(2, 0, 2))


def _flat_map(fn):
    return lambda rows: [out for row in rows for out in fn(row)]


@settings(max_examples=150, deadline=None)
@given(COGROUPED)
def test_pagerank_contributions(cogrouped):
    assert_twins(
        pagerank._contributions_batch, _flat_map(pagerank._contributions), cogrouped
    )


@settings(max_examples=60, deadline=None)
@given(ANY_RECORDS)
def test_streaming_identity(records):
    assert_twins(_identity_batch, lambda rows: [_identity(r) for r in rows], records)


# ----------------------------------------------------------------------
# Built-in kernels: each RDD's batch_kernel against its compute_fused
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _parent():
    """A two-partition parent; the twins never read its records."""
    return build_on_demand_context(1).parallelize([0, 1], 2)


def assert_rdd_twins(rdd, split, records):
    assert_twins(
        rdd.batch_kernel(split), lambda rows: rdd.compute_fused(rows, split), records
    )


SPLITS = st.integers(0, 1)


@settings(max_examples=60, deadline=None)
@given(ANY_RECORDS, SPLITS)
def test_partition_indexed(records, split):
    assert_rdd_twins(PartitionIndexedRDD(_parent()), split, records)


@settings(max_examples=60, deadline=None)
@given(ANY_RECORDS, SPLITS, st.lists(st.integers(0, 2**40), min_size=2, max_size=2))
def test_zip_with_index(records, split, offsets):
    assert_rdd_twins(ZipWithIndexRDD(_parent(), offsets), split, records)


@settings(max_examples=60, deadline=None)
@given(ANY_RECORDS, SPLITS, st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_sample(records, split, fraction, seed):
    assert_rdd_twins(SampledRDD(_parent(), fraction, seed), split, records)


@settings(max_examples=60, deadline=None)
@given(ANY_RECORDS, st.integers(0, 3))
def test_union(records, split):
    parent = _parent()
    assert_rdd_twins(UnionRDD(parent.context, [parent, parent]), split, records)


@settings(max_examples=60, deadline=None)
@given(KEYED_RECORDS, SPLITS, st.integers(2, 5))
def test_filter_mask(records, split, modulus):
    rdd = FilteredRDD(
        _parent(),
        lambda record: record[0] % modulus != 0,
        batch_fn=lambda batch: batch.data[0] % modulus != 0,
    )
    assert_rdd_twins(rdd, split, records)
