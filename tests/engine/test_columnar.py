"""Columnar plane: conversion bit-identity, refusals, and plane boundaries.

The contract under test (see :mod:`repro.engine.columnar`): everything the
conversion layer accepts must round-trip *exactly* (same values, same Python
types, same nesting); everything it cannot round-trip it must refuse —
refusal silently keeps the chain on the row plane.  Blocks, checkpoints,
and results always stay row-form, and sizing must be deterministic for
batch columns whether they are views or copies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import block_manager
from repro.engine.columnar import (
    ColumnarBatch,
    ColumnarUnsupported,
    columns,
    from_records,
)
from repro.engine.sizeof import deep_sizeof, estimate_record_size
from repro.engine.task_runtime import MIN_LOWERED_ROWS
from tests.conftest import Declared, build_on_demand_context, plane


# ----------------------------------------------------------------------
# Round-trip identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "records",
    [
        [1, 2, 3],
        [1.5, -0.0, float("inf")],
        [(1, 2.0), (3, 4.0)],
        # Nested tuples (KMeans assignment output shape).
        [(0, ((1.0, 2.0), 1)), (3, ((4.0, 5.0), 1))],
        # Ragged lists, including empties.
        [(1, [10, 20]), (2, []), (3, [30])],
        # Doubly ragged (PageRank cogroup shape).
        [(1, ([[1, 2], []], [0.5])), (2, ([[3]], []))],
        # Vacuous level: every list empty, leaf dtype unobservable.
        [(1, []), (2, [])],
        [[[]], [[], []]],
        # String leaves: a dictionary of the distinct strings.
        ["a", "b"],
        [(1, "x")],
    ],
)
def test_round_trip_is_exact(records):
    batch = from_records(records)
    assert batch is not None
    out = batch.to_records()
    assert out == records
    # == is too weak for the bit-identity rule (1 == 1.0, True == 1):
    # every leaf must come back with its exact Python type.
    def types(value):
        if isinstance(value, (tuple, list)):
            return (type(value), [types(v) for v in value])
        return type(value)

    assert [types(r) for r in out] == [types(r) for r in records]


def test_negative_zero_round_trips():
    [value] = from_records([-0.0]).to_records()
    assert np.signbit(value)


class _Str(str):
    pass


@pytest.mark.parametrize(
    "records",
    [
        [],  # empty partitions stay row-form
        [1, 2.0],  # mixed leaf types
        [(1,), (1, 2)],  # ragged tuple arity
        [True, False],  # bool is an int subclass but must stay bool
        [1, True],
        [2**63, 1],  # outside int64
        [-(2**63) - 1],
        [None],  # leaves that are not int, float or str
        [{"k": 1}],
        [[1], [2.0]],  # mixed types across flattened list elements
        [(1, [1]), (2, (2,))],  # list vs tuple in one column
        [_Str("a"), _Str("b")],  # a str subclass must round-trip as itself
        [1, "a"],
        ["a", b"a"],
        ["a", _Str("b")],
    ],
)
def test_refusals_return_none(records):
    assert from_records(records) is None


def test_from_records_accepts_any_iterable():
    batch = from_records(iter([1, 2, 3]))
    assert batch.to_records() == [1, 2, 3]


# ----------------------------------------------------------------------
# Batch surface: require / select
# ----------------------------------------------------------------------
def test_require_returns_columns_or_refuses():
    batch = from_records([(1, 2.0), (3, 4.0)])
    ints, floats = batch.require(("tuple", ("i8", "f8")))
    assert ints.dtype == np.int64 and floats.dtype == np.float64
    with pytest.raises(ColumnarUnsupported):
        batch.require(("tuple", ("f8", "f8")))
    with pytest.raises(ColumnarUnsupported):
        batch.require("i8")


def test_select_preserves_order_and_raggedness():
    records = [(1, [10, 20]), (2, []), (3, [30]), (4, [40, 50])]
    batch = from_records(records)
    kept = batch.select(np.array([True, False, True, True]))
    assert len(kept) == 3
    assert kept.to_records() == [records[0], records[2], records[3]]


def test_select_refuses_bad_masks():
    batch = from_records([1, 2, 3])
    with pytest.raises(ColumnarUnsupported):
        batch.select(np.array([1, 0, 1]))  # wrong dtype
    with pytest.raises(ColumnarUnsupported):
        batch.select(np.array([True, False]))  # wrong shape


# ----------------------------------------------------------------------
# columns(): a partition drawn as arrays
# ----------------------------------------------------------------------
def _arrays(column):
    """Every array of a column tree, ragged counts included."""
    if isinstance(column, np.ndarray):
        return [column]
    return [array for child in column for array in _arrays(child)]


@pytest.mark.parametrize(
    "arrays",
    [
        (np.arange(5, dtype=np.int64),),
        (np.array([0.5, -0.0, np.inf, np.nan]),),
        (np.arange(4, dtype=np.int64), np.linspace(-1.0, 1.0, 4)),
        tuple(np.arange(3, dtype=np.int64) + i for i in range(3)),
        # A strided view: a column of a row-major point matrix.
        tuple(np.arange(12.0).reshape(4, 3).T),
    ],
)
def test_columns_is_the_batch_its_rows_columnarise_to(arrays):
    batch = columns(*arrays)
    again = from_records(batch.to_records())
    assert (again.schema, again.length) == (batch.schema, batch.length)
    mine, theirs = _arrays(batch.data), _arrays(again.data)
    assert len(mine) == len(theirs) == len(arrays)
    for a, b in zip(mine, theirs):
        assert a.dtype == b.dtype
        assert a.tobytes() == np.ascontiguousarray(b).tobytes()  # -0.0, nan too


@pytest.mark.parametrize(
    "arrays",
    [
        (np.arange(3, dtype=np.int32),),
        (np.arange(3, dtype=np.float32),),
        (np.array([True, False]),),
        (np.array(["a", "b"]),),
        (np.zeros((2, 2)),),
        (np.int64(3),),
        ([1, 2, 3],),
        (np.arange(3, dtype=np.int64), np.arange(3, dtype=np.uint64)),
    ],
)
def test_columns_refuses_other_dtypes_and_shapes(arrays):
    with pytest.raises(TypeError):
        columns(*arrays)


def test_columns_refuses_unequal_lengths_and_no_arrays():
    with pytest.raises(ValueError):
        columns(np.arange(3, dtype=np.int64), np.arange(4.0))
    with pytest.raises(ValueError):
        columns()


def test_an_empty_drawn_partition_is_rows():
    # The empty-partition refusal holds: from_records keeps [] on the row
    # plane, and a partition drawn empty never becomes a batch either.
    assert columns(np.empty(0, dtype=np.int64)) == []
    assert columns(np.empty(0, dtype=np.int64), np.empty(0)) == []
    assert from_records([]) is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: columns(np.arange(8, dtype=np.int64), np.ones(8)),
        lambda: from_records([(i, [float(i)] * i) for i in range(8)]),
        lambda: from_records([1.0, 2.0]),
    ],
)
def test_handed_out_columns_are_read_only(make):
    for array in _arrays(make().data):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0


# ----------------------------------------------------------------------
# Sizing: columns must size deterministically, views included
# ----------------------------------------------------------------------
def test_deep_sizeof_charges_view_buffers():
    owner = np.arange(1000, dtype=np.int64)
    view = owner[10:990]
    # An owning array's buffer is inside getsizeof; a view's is not, so
    # deep_sizeof adds it — a sliced column must not look near-free.
    assert deep_sizeof(view) >= view.nbytes
    assert deep_sizeof(owner) >= owner.nbytes


def test_estimate_record_size_stable_for_batches():
    batch = from_records([(i, float(i)) for i in range(50)])
    sizes = {estimate_record_size([batch.data]) for _ in range(3)}
    assert len(sizes) == 1


# ----------------------------------------------------------------------
# Plane boundary: the cache refuses columnar payloads
# ----------------------------------------------------------------------
def test_block_manager_rejects_columnar_batches():
    ctx = build_on_demand_context(1)
    manager = ctx.cluster.live_workers()[0].block_manager
    batch = from_records([1, 2, 3])
    with pytest.raises(TypeError, match="to_records"):
        manager.put("rdd_0_0", batch, 24)
    assert manager.get("rdd_0_0") is None


# ----------------------------------------------------------------------
# Engine integration: lowering, inertness, and fallback accounting
# ----------------------------------------------------------------------
def _inc_batch(batch):
    return ColumnarBatch("i8", batch.require("i8") + 1, len(batch))


class _KeepEven:
    """A filter of the even numbers, declared as a ``flat_map``."""

    stage = "flat_map"

    def __call__(self, x):
        return [x] if x % 2 == 0 else []

    def kernel(self, batch):
        return batch.select(batch.require("i8") % 2 == 0)


def _key_batch(batch):
    col = batch.require("i8")
    return ColumnarBatch(("tuple", ("i8", "i8")), (col % 7, col), len(batch))


def _chain(ctx):
    base = ctx.parallelize(list(range(200)), 4, record_size=100)
    return (
        base.map(Declared(lambda x: x + 1, _inc_batch))
        .flat_map(_KeepEven())
        .map(Declared(lambda x: (x % 7, x), _key_batch))
    )


def test_columnar_chain_matches_row_plane():
    outcomes = {}
    for knob in ("on", "off"):
        with plane(knob == "on"):
            ctx = build_on_demand_context(4)
            t0 = ctx.now
            outcomes[knob] = (_chain(ctx).collect(), ctx.now - t0, ctx)
    on_result, on_time, on_ctx = outcomes["on"]
    off_result, off_time, off_ctx = outcomes["off"]
    assert on_result == off_result
    assert on_time == off_time
    stats = on_ctx.scheduler.stats
    assert stats.columnar_chains == 4
    assert stats.columnar_stages == 12
    assert stats.columnar_fallbacks == 0
    # Fusion books stay plane-invariant.
    assert stats.fused_chains == off_ctx.scheduler.stats.fused_chains == 4
    assert stats.fused_stages == off_ctx.scheduler.stats.fused_stages == 12
    assert off_ctx.scheduler.stats.columnar_chains == 0


def test_a_boundary_under_min_lowered_rows_stays_on_the_row_plane(monkeypatch):
    """The threshold chooses a plane; it is not a refusal.  A cached
    boundary one record short of it lowers nothing, counts no fallback and
    converts nothing (not even the block's sidecar); one at it lowers.
    Both equal the row plane exactly."""
    converted = []
    original = block_manager.from_records

    def counting(rows):
        converted.append(len(rows))
        return original(rows)

    monkeypatch.setattr(block_manager, "from_records", counting)
    for n, lowered in ((MIN_LOWERED_ROWS - 1, 0), (MIN_LOWERED_ROWS, 1)):
        runs = {}
        for knob in ("on", "off"):
            with plane(knob == "on"):
                ctx = build_on_demand_context(4)
                cached = ctx.parallelize(list(range(n)), 1, record_size=100).persist()
                cached.count()
                converted.clear()
                out = cached.map(Declared(lambda x: x + 1, _inc_batch)).collect()
            runs[knob] = (out, ctx.now, ctx.scheduler.stats, list(converted))
        assert runs["on"][:2] == runs["off"][:2], n
        stats = runs["on"][2]
        assert stats.columnar_chains == lowered, n
        assert stats.columnar_fallbacks == 0, n
        assert runs["on"][3] == [n] * lowered, n


def test_kernel_refusal_falls_back_with_identical_results():
    def picky(batch):
        raise ColumnarUnsupported("wrong shape for this kernel")

    results = {}
    for knob in ("on", "off"):
        with plane(knob == "on"):
            ctx = build_on_demand_context(4)
            base = ctx.parallelize(list(range(4 * MIN_LOWERED_ROWS)), 4, record_size=100)
            rdd = base.map(Declared(lambda x: x * 3, picky)).map(
                Declared(lambda x: x - 1, _inc_batch)
            )
            results[knob] = (rdd.collect(), ctx.now, ctx.scheduler.stats)
    assert results["on"][0] == results["off"][0]
    assert results["on"][1] == results["off"][1]
    stats = results["on"][2]
    assert stats.columnar_fallbacks == 4  # one refusal per partition
    assert stats.columnar_chains == 0


def test_conversion_refusal_falls_back():
    ctx = build_on_demand_context(4)
    n = 4 * MIN_LOWERED_ROWS
    base = ctx.parallelize([str(i) for i in range(n)], 4, record_size=100)
    out = base.map(Declared(lambda s: s + "!", _inc_batch)).collect()
    assert out == [str(i) + "!" for i in range(n)]
    stats = ctx.scheduler.stats
    assert stats.columnar_fallbacks == 4
    assert stats.columnar_chains == 0


def test_partial_chain_stays_on_row_plane():
    """A chain with any kernel-less stage never converts (no fallback)."""
    ctx = build_on_demand_context(4)
    n = 4 * MIN_LOWERED_ROWS
    base = ctx.parallelize(list(range(n)), 4, record_size=100)
    out = base.map(Declared(lambda x: x + 1, _inc_batch)).map(lambda x: x * 2).collect()
    assert out == [(x + 1) * 2 for x in range(n)]
    stats = ctx.scheduler.stats
    assert stats.columnar_chains == 0
    assert stats.columnar_fallbacks == 0


def test_builtin_kernels_match_row_plane():
    """union lowers via its built-in kernel."""
    outcomes = {}
    for knob in ("on", "off"):
        with plane(knob == "on"):
            ctx = build_on_demand_context(4)
            base = ctx.parallelize(list(range(4 * MIN_LOWERED_ROWS)), 4, record_size=100)
            mapped = base.map(Declared(lambda x: x + 1, _inc_batch))
            both = mapped.union(mapped.map(Declared(lambda x: -x, lambda b: ColumnarBatch(
                "i8", -b.require("i8"), len(b))))).collect()
            outcomes[knob] = (both, ctx.now, ctx)
    assert outcomes["on"][:2] == outcomes["off"][:2]
    assert outcomes["on"][2].scheduler.stats.columnar_chains > 0
