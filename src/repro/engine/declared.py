"""Declared operators: one definition, two forms.

A declared operator is passed where a lambda would be (``rdd.flat_map(
Split())``, ``rdd.map(Pair(1))``, ``rdd.reduce_by_key(Sum())``), and the
engine derives both of its forms from the one definition: calling it is
the row function, and its batch form — ``kernel`` for a row function,
:meth:`Sum.combine` for the reducer — runs the same computation over a
:class:`~repro.engine.columnar.ColumnarBatch`, producing exactly the
records the row form does or refusing.

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
)
from repro.engine.partitioner import hash_int_keys, hash_str_keys

__all__ = ["Identity", "MapValues", "Pair", "Split", "Sum", "kernel_of"]


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
        ``HashPartitioner`` — bucket after bucket (``hash % n_buckets``),
        hash-ordered within a bucket, first occurrence breaking hash ties —
        plus each bucket's size.  Keys are ``i8`` or ``"s"``; a string key
        is hashed once per distinct string, and its combiner keeps the
        batch's dictionary.  None when it cannot promise the row loop's
        values: other keys, list leaves (``+`` concatenates), an empty
        batch, a ``-0.0`` leaf or an ``i8`` sum that could leave int64.
        """
        schema = batch.schema
        if batch.length == 0 or schema[0] != "tuple" or len(schema[1]) != 2:
            return None
        key_schema, value_schema = schema[1]
        keys, values = batch.data
        if key_schema == "s":
            # Codes are dense ids into the dictionary, so they are counted,
            # never sorted, and each one's first occurrence taken in the
            # same pass: the tables are the dictionary's size, which the
            # batch already holds.  CRC32 can tie two distinct strings, so
            # first occurrence breaks ties as the row loop does.
            codes, words = keys
            segments = codes
            span = len(words)
            filled = distinct = np.flatnonzero(np.bincount(codes, minlength=span))
            first = np.full(span, batch.length, dtype=np.int64)
            np.minimum.at(first, codes, np.arange(batch.length))
            hashed, bucket = hash_str_keys(
                list(map(words.__getitem__, distinct.tolist())), n_buckets
            )
            ties: Tuple[np.ndarray, ...] = (first[filled],)
        elif key_schema == "i8":
            low = int(keys.min())
            span = int(keys.max()) - low + 1
            if span <= min(8 * batch.length, 2**31):
                # Dense ids (vertex ids, centroid indices): a key's segment
                # is its offset in a table over the key range, so the
                # records are counted, not sorted — about 3x cheaper with
                # the table at this bound, and it stays a small multiple of
                # the batch in memory (the sort draws level near 64x).
                # Keys less than 2**31 apart never share a hash, so nothing
                # can tie.
                segments = keys - low
                filled = np.flatnonzero(np.bincount(segments, minlength=span))
                distinct = filled + low
                ties = ()
            else:
                distinct, first, segments = np.unique(
                    keys, return_index=True, return_inverse=True
                )
                span = len(distinct)
                filled = np.arange(span)
                ties = (first,)
            hashed, bucket = hash_int_keys(distinct, n_buckets)
        else:
            return None
        order = np.lexsort(ties + (hashed, bucket))
        try:
            sums = _segment_sums(value_schema, values, segments, span, filled[order])
        except _Refuse:
            return None
        sizes = np.bincount(bucket, minlength=n_buckets).tolist()
        combined = distinct[order] if key_schema == "i8" else (distinct[order], words)
        return ColumnarBatch(schema, (combined, sums), len(order)), sizes


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
