"""Declared operators: one definition, two forms.

A declared operator is passed where a lambda would be (``rdd.flat_map(
Split())``, ``rdd.map(Pair(1))``, ``rdd.reduce_by_key(Sum())``), and the
engine derives both of its forms from the one definition: calling it is
the row function, and its batch form — ``kernel`` for a row function,
:meth:`Sum.combine` and :meth:`Sum.merge` for the reducer — runs the same
computation over a :class:`~repro.engine.columnar.ColumnarBatch`,
producing exactly the records the row form does or refusing.
``group_by_key`` is declared without being passed: its shuffle's
:class:`Group` is the batch form of ``dependencies.GROUP``.

A row function is declared for a stage (``"map"`` or ``"flat_map"``) when
its own class body defines ``__call__``, ``kernel`` and ``stage``
(:func:`kernel_of`); this is the only way a ``map`` or ``flat_map`` stage
gets a kernel.  A subclass that overrides ``__call__`` alone is not
declared, since its row form and the inherited kernel could disagree.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.engine.columnar import (
    LINE,
    ColumnarBatch,
    ColumnarUnsupported,
    _frozen,
    _Refuse,
    encode,
    grouped,
)
from repro.engine.partitioner import key_order

__all__ = ["Group", "Identity", "MapValues", "Pair", "Split", "Sum", "kernel_of"]


class Split:
    """Declared row function ``line -> line.split()``: a line's
    whitespace-separated words, for ``flat_map``.

    Its kernel takes a batch of lines: a :data:`~repro.engine.columnar.LINE`
    batch (a text source born as its tokens) hands out its token column as
    it is; a ``"s"`` batch (lines that became rows and were columnarised
    again, e.g. a restored checkpoint or a cached block) is split as
    ``" ".join(lines).split()``, which equals splitting line by line for
    any strings — the joining space separates lines, and ``split()`` drops
    leading, trailing and repeated whitespace of every kind.
    """

    __slots__ = ()
    stage = "flat_map"

    def __call__(self, line: str) -> List[str]:
        return line.split()

    def kernel(self, batch: ColumnarBatch) -> ColumnarBatch:
        if batch.schema == LINE:
            _counts, tokens = batch.data
            return ColumnarBatch("s", tokens, len(tokens[0]))
        if batch.schema != "s":
            raise ColumnarUnsupported(f"Split needs lines, got {batch.schema!r}")
        tokens = " ".join(batch.to_records()).split()
        return ColumnarBatch("s", encode(tokens), len(tokens))


#: The leaf a ``Pair`` value's column takes, by its exact type.
_LEAF_OF_VALUE = {int: "i8", float: "f8"}


class Pair:
    """Declared row function ``x -> (x, value)``, for ``map`` — wordcount's
    ``(word, 1)``.

    It has a kernel only when ``value`` is an ``int`` inside int64 or a
    ``float`` (``kernel`` is None otherwise, and the stage runs on rows):
    the batch gains a constant column beside its records.
    """

    __slots__ = ("value", "_leaf")
    stage = "map"

    def __init__(self, value: Any):
        self.value = value
        leaf = _LEAF_OF_VALUE.get(type(value))
        if leaf == "i8" and not -(2**63) <= value < 2**63:
            leaf = None
        self._leaf = leaf

    def __call__(self, x: Any) -> Tuple[Any, Any]:
        return (x, self.value)

    @property
    def kernel(self) -> Optional[Callable[[ColumnarBatch], ColumnarBatch]]:
        return None if self._leaf is None else self._pair

    def _pair(self, batch: ColumnarBatch) -> ColumnarBatch:
        n = batch.length
        dtype = np.int64 if self._leaf == "i8" else np.float64
        column = _frozen(np.full(n, self.value, dtype=dtype))
        return ColumnarBatch(("tuple", (batch.schema, self._leaf)), (batch.data, column), n)


def kernel_of(fn: Any, stage: str) -> Optional[Callable[[ColumnarBatch], ColumnarBatch]]:
    """The kernel of ``fn`` run as a ``stage`` (``"map"`` or ``"flat_map"``)
    when ``fn`` is a row function declared for that stage; else None."""
    body = vars(type(fn))
    if body.get("stage") != stage or "__call__" not in body or "kernel" not in body:
        return None
    return fn.kernel


class Identity:
    """Declared row function ``x -> x``: its kernel hands the batch on."""

    __slots__ = ()
    stage = "map"

    def __call__(self, x: Any) -> Any:
        return x

    def kernel(self, batch: ColumnarBatch) -> ColumnarBatch:
        return batch


class MapValues:
    """Declared row function ``(k, v) -> (k, fn(v))``, ``RDD.map_values``'s
    stage.  When ``fn`` is declared for ``map`` its kernel runs over the
    value column, beside the key column as it is; otherwise none."""

    __slots__ = ("fn", "_value_kernel")
    stage = "map"

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn
        self._value_kernel = kernel_of(fn, "map")

    def __call__(self, kv: Tuple[Any, Any]) -> Tuple[Any, Any]:
        return (kv[0], self.fn(kv[1]))

    @property
    def kernel(self) -> Optional[Callable[[ColumnarBatch], ColumnarBatch]]:
        return None if self._value_kernel is None else self._lift

    def _lift(self, batch: ColumnarBatch) -> ColumnarBatch:
        schema = batch.schema
        if schema[0] != "tuple" or len(schema[1]) != 2:
            raise ColumnarUnsupported(f"map_values needs pairs, got {schema!r}")
        key_schema, value_schema = schema[1]
        keys, values = batch.data
        n = batch.length
        out = self._value_kernel(ColumnarBatch(value_schema, values, n))
        return ColumnarBatch(("tuple", (key_schema, out.schema)), (keys, out.data), n)


class Sum:
    """Declared reducer: elementwise ``+`` over numbers and tuple trees.

    ``rdd.reduce_by_key(Sum())`` merges values leaf by leaf — a value is a
    number or a fixed-shape tuple of values (KMeans's ``(vector, count)``).
    Declaring the reducer, instead of passing a lambda, lets the engine
    derive both forms of the one definition: calling the instance is the
    row merge, and :meth:`combine` is the same left fold as a segmented
    NumPy reduction — over a lowered map head, whose combined batch is the
    shuffle's map output as it is, and (with one bucket) over a reducer's
    fetched batch.
    """

    __slots__ = ()

    def __call__(self, a: Any, b: Any) -> Any:
        if type(a) is not tuple:
            return a + b
        if len(a) != len(b):
            raise ValueError(f"Sum over tuples of different shape: {a!r} + {b!r}")
        return tuple([
            x + y if type(x) is not tuple else self(x, y) for x, y in zip(a, b)
        ])

    def combine(
        self, batch: ColumnarBatch, n_buckets: int
    ) -> Optional[Tuple[ColumnarBatch, List[int]]]:
        """Map-side combine of ``(key, value)`` records, columns to columns.

        One combiner per distinct key, as a batch laid out the way
        ``buckets.bucket_map_output`` lays out its rows under a plain
        ``HashPartitioner`` (:func:`~repro.engine.partitioner.key_order`),
        plus each bucket's size.  Keys are ``i8`` or ``"s"``; a string
        key's combiner keeps the batch's dictionary.  None when it cannot
        promise the row loop's values: other keys, list leaves (``+``
        concatenates), an empty batch, a ``-0.0`` leaf or an ``i8`` sum
        that could leave int64.
        """
        pair = _pair_schemas(batch)
        if pair is None:
            return None
        key_schema, value_schema = pair
        keys, values = batch.data
        layout = key_order(key_schema, keys, n_buckets)
        if layout is None:
            return None
        try:
            sums = _segment_sums(
                value_schema, values, layout.segments, layout.span, layout.pick
            )
        except _Refuse:
            return None
        return ColumnarBatch(batch.schema, (layout.keys, sums), len(layout.pick)), layout.sizes

    def merge(self, batch: ColumnarBatch) -> Optional[ColumnarBatch]:
        """A reducer's merge of its fetched combiners, by sort: ``combine``
        with one bucket is ``buckets.merge_reduce_buckets``' left fold in
        ``hash_sort_key`` order, first occurrence breaking hash ties."""
        combined = self.combine(batch, 1)
        return None if combined is None else combined[0]

    @staticmethod
    def rows(batch: ColumnarBatch) -> List[Any]:
        """A combined batch's records as the row loop stores them."""
        return batch.to_records()


class Group:
    """Declared ``group_by_key`` combine: each key's values, in order.

    The row form is ``dependencies.GROUP`` (the map side stores ``(key,
    tuple(values))``, and the reducer hands out one fresh list per key);
    this is its batch form on both sides of the shuffle.  :meth:`combine`
    turns a ``(key, value)`` batch into one ``(key, ("list", value))``
    combiner per distinct key, in :func:`~repro.engine.partitioner.key_order`,
    each key's values in record order.  :meth:`merge` regroups a reducer's
    fetched combiners — every map's, in map order — with one bucket, which
    is the row merge's output exactly: a key's lists joined in map order,
    keys in ``hash_sort_key`` order.  Grouping never computes on a value,
    so any value schema groups; only the key must be ``i8`` or ``"s"``.
    """

    __slots__ = ()

    def combine(
        self, batch: ColumnarBatch, n_buckets: int
    ) -> Optional[Tuple[ColumnarBatch, List[int]]]:
        """Map-side combine of a ``(key, value)`` batch, plus each bucket's
        size; None for other keys or an empty batch."""
        pair = _pair_schemas(batch)
        if pair is None:
            return None
        keys, values = batch.data
        return _regroup(*pair, keys, values, None, n_buckets)

    def merge(self, batch: ColumnarBatch) -> Optional[ColumnarBatch]:
        """A reducer's merge of fetched ``(key, ("list", value))``
        combiners, by sort; None for other keys or an empty batch."""
        pair = _pair_schemas(batch)
        if pair is None or pair[1][0] != "list":
            return None
        keys, (counts, values) = batch.data
        regrouped = _regroup(pair[0], pair[1][1], keys, values, counts, 1)
        return None if regrouped is None else regrouped[0]

    @staticmethod
    def rows(batch: ColumnarBatch) -> List[Any]:
        """A combined batch's records as the row loop stores them:
        ``(key, tuple(values))``."""
        return [(key, tuple(values)) for key, values in batch.to_records()]


def _pair_schemas(batch: ColumnarBatch) -> Optional[Tuple[Any, Any]]:
    """``(key schema, value schema)`` of a non-empty batch of pairs."""
    schema = batch.schema
    if batch.length == 0 or schema[0] != "tuple" or len(schema[1]) != 2:
        return None
    return schema[1]


def _regroup(
    key_schema: Any,
    value_schema: Any,
    keys: Any,
    values: Any,
    counts: Optional[np.ndarray],
    n_buckets: int,
) -> Optional[Tuple[ColumnarBatch, List[int]]]:
    """Group values by key in :func:`~repro.engine.partitioner.key_order`:
    record ``j`` holds ``counts[j]`` of the values (one each without
    ``counts``), and a key's values keep their order."""
    layout = key_order(key_schema, keys, n_buckets)
    if layout is None:
        return None
    target = layout.targets()
    if counts is not None:
        target = np.repeat(target, counts)
    n = len(layout.pick)
    schema = ("tuple", (key_schema, ("list", value_schema)))
    column = (layout.keys, grouped(value_schema, values, target, n))
    return ColumnarBatch(schema, column, n), layout.sizes


def _segment_sums(
    schema: Any, column: Any, segments: np.ndarray, n: int, pick: np.ndarray
) -> Any:
    """Sums of one value tree over ``n`` segments, as the row fold computes
    them; segments ``pick``, in that order, are returned.

    ``np.bincount(weights=)`` and ``np.add.at`` both add in stream order
    into a zero — the row loop's left fold bit for bit, except where the
    zero seed shows: ``0.0 + -0.0`` is ``+0.0``, and int64 wraps where
    Python ints grow.  Both cases, string and list leaves raise
    :class:`~repro.engine.columnar._Refuse`.
    """
    if schema == "f8":
        if (np.signbit(column) & (column == 0.0)).any():
            raise _Refuse
        return np.bincount(segments, weights=column, minlength=n)[pick]
    if schema == "i8":
        bound = max(abs(int(column.min())), abs(int(column.max())))
        if bound * len(column) >= 2**63:
            raise _Refuse
        sums = np.zeros(n, dtype=np.int64)
        np.add.at(sums, segments, column)
        return sums[pick]
    if schema[0] == "tuple":
        return tuple(
            _segment_sums(child, col, segments, n, pick)
            for child, col in zip(schema[1], column)
        )
    raise _Refuse
