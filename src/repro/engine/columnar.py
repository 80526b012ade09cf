"""Columnar partition representation for the fused data plane.

The fused-chain compiler lowers a narrow chain to *vectorised batch
kernels* operating on arrays-of-columns instead of streaming records one
at a time through Python closures, choosing the plane from what it
observes.  A chain lowers when every stage carries a kernel and its
boundary holds at least :data:`MIN_LOWERED_ROWS` (32) records; below that
the fixed cost of converting exceeds what the kernels save, so the chain
streams rows by choice — no conversion, no sidecar, no fallback counted.

- **Plane boundary rules.** Everything observable — block-manager puts,
  checkpoint payloads, memoised partitions, action results — is always
  *row* form (plain Python lists of records); the block manager refuses
  ColumnarBatch payloads.  A shuffle map output is a row tuple plus an
  offset index, except one: a declared :class:`Sum`'s, whose combined
  batch is stored as it is.  Columns exist in five derived places only:
  a source partition drawn as columns (a generator returning
  :func:`columns`), handed as it is to a lowered chain or a declared
  combine and turned into rows only where something observes it or needs
  rows; inside one fused-chain execution (rows → columns on entry unless
  drawn as columns, batch kernels, columns → rows on exit); as a *sidecar*
  of a memory-resident cached block (``BlockManager.columnar``: the
  block's rows converted once — or, for a persisted source drawn as
  columns, the drawn batch itself, seeded by ``BlockManager.put(batch=)``
  — owned by the block entry and gone with it, so an iterative job does
  not re-columnarise the same cached partition on every pass); at a map
  head that feeds a declared combine, whose map output is reduced
  straight from the batch — such a head is never turned back into rows
  unless something observes it (it is persisted or a materialisation
  point); and across that combine's shuffle (next rule).
- **Reduce-side rules.**  When every map output of a shuffle is a batch
  of one schema, the fetch plan concatenates them once per output epoch
  into one reduce-major batch, and each fetch is one slice of it; a
  shuffle mixing rows and batches turns its batches into rows in the
  plan.  A reducer whose caller takes a batch (``as_batch``: a lowered
  chain's boundary, a declared combine's head, a cogroup's side) merges
  a fetched batch of at least :data:`MIN_LOWERED_ROWS` records by sort —
  ``Sum.combine`` with one bucket — and a two-sided cogroup whose sides
  both arrive as ``i8``-keyed batches of that size groups by sort
  (:func:`cogroup`).  Either result is exactly the batch ``from_records``
  builds from the row path's output, keys in ``hash_sort_key`` order
  with first occurrence breaking hash ties; where that cannot be
  promised (a refusal, an empty side, a list level with no element) the
  rows are built and the row loop runs.  Below the threshold nothing is
  converted but the fetched slice itself, and staying on rows is never
  counted as a fallback.
- **Bit-identity rule.** ``to_records(from_records(rows))`` must equal
  ``rows`` exactly — same Python types (``int`` stays ``int``, ``float``
  stays ``float``), same values, same nesting.  ``from_records`` therefore
  *refuses* (returns None) anything it cannot round-trip: empty partitions,
  ragged tuples, mixed-type columns, bools, ints outside int64, and any
  non-numeric leaf.  Refusal is never an error — the chain silently falls
  back to the row plane.  :meth:`Sum.combine` holds the same line: its
  combiners equal the row combine loop's exactly, in the same bucket
  order, or it refuses.

A batch is a schema tree plus a column tree mirroring it:

- scalar leaf ``"i8"`` / ``"f8"`` → one NumPy array (int64 / float64);
- ``("tuple", (child, ...))`` → a tuple of child columns (records are
  fixed-arity tuples);
- ``("list", child)`` → ragged column: ``(counts, child_column)`` where
  ``counts[j]`` is record ``j``'s list length and the child column holds
  the concatenated elements.  Lists nest (PageRank's cogrouped adjacency
  lists are list-of-list-of-int).

Batch kernels may raise :class:`ColumnarUnsupported` when the runtime
schema does not fit them; the runtime counts a fallback and re-runs the
chain on the row plane, so a kernel only ever has to be *correct or
refuse*, never general.  Columns are immutable: a kernel's input may be a
cached block's sidecar, shared by every task that reads the block, so a
kernel builds new arrays (passing inputs through untouched is fine) and
never writes into the ones it was given — :func:`columns` and
:func:`from_records` hand out read-only arrays, so a kernel that tries
raises.
"""

from __future__ import annotations

from itertools import chain as _chain
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.partitioner import hash_int_keys

__all__ = [
    "ColumnarBatch",
    "ColumnarUnsupported",
    "Drawn",
    "MIN_LOWERED_ROWS",
    "Sum",
    "cogroup",
    "columns",
    "concat",
    "from_records",
    "take",
]

#: Fewest records for which the columnar plane takes a partition: a fused
#: chain's boundary, the sidecar a cached block serves, a reducer's merge
#: input and each side of a cogroup.  Below it nothing is converted.
#: Lowering has a fixed cost per chain (one ``from_records``, a kernel call
#: per stage, one ``to_records``) that pays only once the kernels have
#: enough records to save on.  CPU time per run, both planes
#: (EXPERIMENTS.md, "Columnar crossover"): at 16 records per partition the
#: row plane wins KMeans 1.9x and PageRank 1.5x; KMeans is about even at 32
#: (0.8-1.05x), and its kernels win 1.5x at 64 and 2.9x at 128.
#: PageRank, whose cogroups and merges run by sort on batches that crossed
#: the shuffle, ties between 64 and 128 records and wins 1.5-2x at 600 (its
#: kernels lost everywhere up to ~600 while the cogroup output was
#: columnarised from rows); rows still win it 1.5x at 16 and 32, so one
#: threshold serves both.
MIN_LOWERED_ROWS = 32


class ColumnarUnsupported(Exception):
    """A batch kernel cannot apply to this batch's schema.

    Raised *by kernels* (never by the conversion layer) when the runtime
    schema differs from the shape they were written for.  The runtime
    treats it exactly like a conversion refusal: count a fallback, run the
    chain on the row plane.
    """


class _Refuse(Exception):
    """Internal: these records cannot be columnarised (not an error)."""


#: Singleton sets for the C-speed exact-type scans in :func:`_build`.
_INT_ONLY = frozenset((int,))
_FLOAT_ONLY = frozenset((float,))
_TUPLE_ONLY = frozenset((tuple,))
_LIST_ONLY = frozenset((list,))


#: The dtypes a column leaf may hold, by schema leaf.
_LEAF_OF_DTYPE = {np.dtype(np.int64): "i8", np.dtype(np.float64): "f8"}


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a column handed out may become a cached
    block's sidecar, so a kernel that writes into its input must raise
    instead of corrupting every later reader of the block."""
    array.flags.writeable = False
    return array


def _build(values: List[Any]) -> Tuple[Any, Any]:
    """Infer ``(schema, column)`` for one field across all records.

    Validates exact Python types as it goes — ``type(v) is int`` (which
    excludes ``bool``), ``type(v) is float`` — so the round trip can
    rebuild records bit-identically.  Raises :class:`_Refuse` on anything
    mixed, ragged, or non-numeric.
    """
    if not values:
        # A vacuous level (e.g. every list at this depth is empty): no
        # elements exist, so the leaf dtype is unobservable — any
        # placeholder round-trips exactly.
        return "f8", _frozen(np.empty(0, dtype=np.float64))
    # All structural scans below run in C (``map`` feeding a set method):
    # the exact-type requirement — ``type(v) is int``, which excludes
    # ``bool`` and int subclasses — is what makes the ``np.array`` casts
    # coercion-free, so the checks must see every element.
    t0 = type(values[0])
    if t0 is int:
        if not _INT_ONLY.issuperset(map(type, values)):
            raise _Refuse
        try:
            return "i8", _frozen(np.array(values, dtype=np.int64))
        except OverflowError as exc:  # int outside int64
            raise _Refuse from exc
    if t0 is float:
        if not _FLOAT_ONLY.issuperset(map(type, values)):
            raise _Refuse
        return "f8", _frozen(np.array(values, dtype=np.float64))
    if t0 is tuple:
        arity = len(values[0])
        if not _TUPLE_ONLY.issuperset(map(type, values)):
            raise _Refuse
        if set(map(len, values)) != {arity}:
            raise _Refuse  # ragged arity
        children = [_build([v[i] for v in values]) for i in range(arity)]
        return (
            ("tuple", tuple(schema for schema, _ in children)),
            tuple(column for _, column in children),
        )
    if t0 is list:
        if not _LIST_ONLY.issuperset(map(type, values)):
            raise _Refuse
        counts = _frozen(np.fromiter(map(len, values), dtype=np.int64, count=len(values)))
        child_schema, child_column = _build(list(_chain.from_iterable(values)))
        return ("list", child_schema), (counts, child_column)
    raise _Refuse


def _emit(schema: Any, column: Any, n: int) -> List[Any]:
    """Rebuild the Python values of one field (inverse of :func:`_build`).

    ``ndarray.tolist`` already yields native ``int``/``float`` objects, so
    types round-trip exactly.
    """
    if schema == "i8" or schema == "f8":
        return column.tolist()
    if schema[0] == "tuple":
        parts = [
            _emit(child, col, n) for child, col in zip(schema[1], column)
        ]
        if not parts:
            return [() for _ in range(n)]
        return list(zip(*parts))
    counts, child_column = column
    flat = _emit(schema[1], child_column, int(counts.sum()))
    out: List[Any] = []
    start = 0
    for count in counts.tolist():
        out.append(flat[start : start + count])
        start += count
    return out


def take(schema: Any, column: Any, idx: np.ndarray) -> Any:
    """Records ``idx`` of one column tree, in that order (repeats allowed).

    The one gather every row subset goes through.  A ragged level gathers
    its ``counts`` and, from its child, each picked record's whole list: the
    list's start in the child axis plus a ramp over its length.
    """
    if schema == "i8" or schema == "f8":
        return column[idx]
    if schema[0] == "tuple":
        return tuple(take(child, col, idx) for child, col in zip(schema[1], column))
    counts, child_column = column
    picked = counts[idx]
    starts = np.cumsum(counts) - counts
    ramp_base = np.cumsum(picked) - picked
    child_idx = np.repeat(starts[idx] - ramp_base, picked) + np.arange(
        int(picked.sum()), dtype=np.int64
    )
    return picked, take(schema[1], child_column, child_idx)


def _slice(schema: Any, column: Any, start: int, stop: int) -> Any:
    """Records ``start:stop`` of one column tree, as views."""
    if schema == "i8" or schema == "f8":
        return column[start:stop]
    if schema[0] == "tuple":
        return tuple(
            _slice(child, col, start, stop) for child, col in zip(schema[1], column)
        )
    counts, child_column = column
    low = int(counts[:start].sum())
    high = low + int(counts[start:stop].sum())
    return counts[start:stop], _slice(schema[1], child_column, low, high)


def _concat(schema: Any, trees: List[Any]) -> Any:
    """One column tree holding several trees' records, in order."""
    if schema == "i8" or schema == "f8":
        return np.concatenate(trees)
    if schema[0] == "tuple":
        return tuple(
            _concat(child, [col[i] for col in trees])
            for i, child in enumerate(schema[1])
        )
    return (
        np.concatenate([col[0] for col in trees]),
        _concat(schema[1], [col[1] for col in trees]),
    )


def _vacuous(schema: Any, column: Any) -> bool:
    """Does some list level of this column tree hold no element at all?

    ``from_records`` gives such a level its placeholder leaf, whatever the
    tree says, so a batch built from this one could not promise its schema.
    """
    if schema == "i8" or schema == "f8":
        return False
    if schema[0] == "tuple":
        return any(_vacuous(child, col) for child, col in zip(schema[1], column))
    counts, child_column = column
    return not counts.any() or _vacuous(schema[1], child_column)


class ColumnarBatch:
    """One partition's records as a schema tree of NumPy columns."""

    __slots__ = ("schema", "data", "length", "__weakref__")

    def __init__(self, schema: Any, data: Any, length: int):
        self.schema = schema
        self.data = data
        self.length = int(length)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarBatch(schema={self.schema!r}, length={self.length})"

    def require(self, schema: Any) -> Any:
        """The column tree, if the schema matches; else kernel fallback."""
        if self.schema != schema:
            raise ColumnarUnsupported(
                f"batch schema {self.schema!r} != expected {schema!r}"
            )
        return self.data

    def select(self, mask: np.ndarray) -> "ColumnarBatch":
        """Keep records where ``mask`` is True, preserving order."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (self.length,):
            raise ColumnarUnsupported(
                f"selection mask must be bool[{self.length}], "
                f"got {mask.dtype} {mask.shape}"
            )
        idx = np.flatnonzero(mask)
        return ColumnarBatch(self.schema, take(self.schema, self.data, idx), len(idx))

    def slice(self, start: int, stop: int) -> "ColumnarBatch":
        """Records ``start:stop``, sharing this batch's arrays."""
        return ColumnarBatch(
            self.schema, _slice(self.schema, self.data, start, stop), stop - start
        )

    def to_records(self) -> List[Any]:
        """Rows back out — bit-identical to what ``from_records`` consumed."""
        return _emit(self.schema, self.data, self.length)


def from_records(records: Sequence[Any]) -> Optional[ColumnarBatch]:
    """Columnarise a partition, or None when it must stay on the row plane.

    Refusals (all return None, never raise): empty input; mixed-type or
    ragged-arity columns; ``bool`` leaves (``bool`` is an ``int`` subclass
    but must round-trip as ``bool``); ints outside int64; any non-numeric
    leaf (strings, dicts, None, objects).
    """
    if type(records) is not list:
        records = list(records)
    if not records:
        return None
    try:
        schema, data = _build(records)
    except _Refuse:
        return None
    return ColumnarBatch(schema, data, len(records))


#: A generated partition as :func:`columns` returns it: the batch, or
#: ``[]`` when it holds no records.
Drawn = Union[ColumnarBatch, List[Any]]


def columns(*arrays: np.ndarray) -> Drawn:
    """A generated partition drawn as columns: record ``j`` is element ``j``
    of every array.

    One array gives scalar records; several give fixed-arity tuple records,
    one field per array, in order.  The arrays must be 1-d, equally long,
    and int64 or float64 — the batch is then exactly the one
    :func:`from_records` builds from its ``to_records()``, so a source
    drawn as columns is the same partition as one drawn as rows.  An empty
    partition is ``[]``: it stays on the row plane, as ``from_records``'s
    refusal of an empty partition keeps it.  The arrays are made read-only.
    """
    if not arrays:
        raise ValueError("columns() needs at least one array")
    length = len(arrays[0])
    leaves = []
    for array in arrays:
        leaf = _LEAF_OF_DTYPE.get(getattr(array, "dtype", None))
        if leaf is None or array.ndim != 1:
            raise TypeError(
                "columns() takes 1-d int64 or float64 arrays, got "
                f"{getattr(array, 'dtype', type(array).__name__)} "
                f"{getattr(array, 'shape', '')}"
            )
        if len(array) != length:
            raise ValueError(f"columns() arrays differ in length: {len(array)} != {length}")
        leaves.append(leaf)
    if length == 0:
        return []
    for array in arrays:
        _frozen(array)
    if len(arrays) == 1:
        return ColumnarBatch(leaves[0], arrays[0], length)
    return ColumnarBatch(("tuple", tuple(leaves)), arrays, length)


def concat(batches: Sequence[ColumnarBatch]) -> ColumnarBatch:
    """One batch holding every batch's records, in order; they must share
    one schema."""
    schema = batches[0].schema
    if any(batch.schema != schema for batch in batches):
        raise ValueError("concat() needs batches of one schema")
    return ColumnarBatch(
        schema,
        _concat(schema, [batch.data for batch in batches]),
        sum(batch.length for batch in batches),
    )


def cogroup(left: ColumnarBatch, right: ColumnarBatch) -> Optional[ColumnarBatch]:
    """Two-sided cogroup of ``(key, value)`` batches, by sort.

    One ``(key, ([left values], [right values]))`` record per distinct key:
    exactly the batch ``from_records`` builds from the row cogroup's output
    (``CoGroupedRDD``) — keys in ``hash_sort_key`` order, hash ties broken
    by first occurrence with the left side read first, and each group's
    values in their side's order.  None where that cannot be promised: a
    non-``i8`` key, an empty side, or a list level holding no element
    anywhere (``from_records`` would infer its placeholder leaf).
    """
    sides = (left, right)
    for side in sides:
        schema = side.schema
        if (
            side.length == 0
            or schema[0] != "tuple"
            or len(schema[1]) != 2
            or schema[1][0] != "i8"
            or _vacuous(schema[1][1], side.data[1])
        ):
            return None
    distinct, first, inverse = np.unique(
        np.concatenate((left.data[0], right.data[0])),
        return_index=True,
        return_inverse=True,
    )
    hashed, _bucket = hash_int_keys(distinct, 1)
    order = np.lexsort((first, hashed))
    # Each record's output record: its key's rank in that order.
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    target = rank[inverse]
    split = left.length
    schemas = []
    groups = []
    for side, at in zip(sides, (target[:split], target[split:])):
        value_schema = side.schema[1][1]
        schemas.append(("list", value_schema))
        groups.append((
            np.bincount(at, minlength=len(order)),
            take(value_schema, side.data[1], np.argsort(at, kind="stable")),
        ))
    return ColumnarBatch(
        ("tuple", ("i8", ("tuple", tuple(schemas)))),
        (distinct[order], tuple(groups)),
        len(order),
    )


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
        plus each bucket's size.  None when it cannot promise the row
        loop's values: non-``i8`` keys, list leaves (``+`` concatenates), an
        empty batch, a ``-0.0`` leaf or an ``i8`` sum that could leave int64.
        """
        schema = batch.schema
        if (
            batch.length == 0
            or schema[0] != "tuple"
            or len(schema[1]) != 2
            or schema[1][0] != "i8"
        ):
            return None
        keys, values = batch.data
        low = int(keys.min())
        span = int(keys.max()) - low + 1
        if span <= min(8 * batch.length, 2**31):
            # Dense ids (vertex ids, centroid indices): a key's segment is
            # its offset in a table over the key range, so the records are
            # counted, not sorted — about 3x cheaper with the table at this
            # bound, and it stays a small multiple of the batch in memory
            # (the sort draws level near 64x).  Keys less than 2**31 apart
            # never share a hash, so nothing can tie.
            segments = keys - low
            filled = np.flatnonzero(np.bincount(segments, minlength=span))
            distinct = filled + low
            ties: Tuple[np.ndarray, ...] = ()
        else:
            distinct, first, segments = np.unique(
                keys, return_index=True, return_inverse=True
            )
            span = len(distinct)
            filled = np.arange(span)
            ties = (first,)
        hashed, bucket = hash_int_keys(distinct, n_buckets)
        order = np.lexsort(ties + (hashed, bucket))
        try:
            sums = _segment_sums(schema[1][1], values, segments, span, filled[order])
        except _Refuse:
            return None
        sizes = np.bincount(bucket, minlength=n_buckets).tolist()
        return ColumnarBatch(schema, (distinct[order], sums), len(order)), sizes


def _segment_sums(
    schema: Any, column: Any, segments: np.ndarray, n: int, pick: np.ndarray
) -> Any:
    """Sums of one value tree over ``n`` segments, as the row fold computes
    them; segments ``pick``, in that order, are returned.

    ``np.bincount(weights=)`` and ``np.add.at`` both add in stream order
    into a zero — the row loop's left fold bit for bit, except where the
    zero seed shows: ``0.0 + -0.0`` is ``+0.0``, and int64 wraps where
    Python ints grow.  Both cases, and list leaves, raise :class:`_Refuse`.
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
