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
  offset index, except a declared combine's (``Sum`` or ``Group``,
  :mod:`repro.engine.declared`), whose combined batch is stored as it is.
  Columns exist in five derived places only:
  a source partition drawn as columns (a generator returning
  :func:`columns` or :func:`token_lines`), handed as it is to a lowered
  chain or a declared combine and turned into rows only where something
  observes it or needs rows; inside one fused-chain execution (rows →
  columns on entry unless drawn as columns, batch kernels, columns → rows
  on exit); as a *sidecar*
  of a memory-resident cached block (``BlockManager.columnar``: the
  block's rows converted once — or, for a persisted source drawn as
  columns, a reducer's merge or a cogroup by sort, the computed batch
  itself where :func:`as_sidecar` takes it, seeded by
  ``BlockManager.put(batch=)`` — owned by the block entry and gone with
  it, so an iterative job does not re-columnarise the same cached
  partition on every pass); at a map
  head that feeds a declared combine, whose map output is reduced
  straight from the batch — such a head is never turned back into rows
  unless something observes it (it is persisted or a materialisation
  point); and across that combine's shuffle (next rule).
- **Reduce-side rules.**  When every map output of a shuffle is a batch
  of one schema, the fetch plan lays them out once per output epoch as
  one reduce-major batch, and each fetch is one slice of it; a
  shuffle mixing rows and batches turns its batches into rows in the
  plan.  A reducer whose caller takes a batch (``as_batch``: a lowered
  chain's boundary, a declared combine's head, a cogroup's side) merges
  a fetched batch of at least :data:`MIN_LOWERED_ROWS` records by sort —
  the declared combine's ``merge`` — and a two-sided cogroup whose sides
  both arrive as ``i8``-keyed batches of that size groups by sort
  (:func:`cogroup`).  Either result holds exactly the row path's records,
  keys in ``hash_sort_key`` order with first occurrence breaking hash
  ties (``partitioner.key_order`` with one bucket, the one definition of
  that order for columns); where that cannot be promised (a refusal, an
  empty side, a cogroup side with a list level holding no element) the
  rows are built and the row loop runs.  Below the threshold nothing is
  converted but the fetched slice itself, and staying on rows is never
  counted as a fallback.
- **Bit-identity rule.** ``to_records(from_records(rows))`` must equal
  ``rows`` exactly — same Python types (``int`` stays ``int``, ``float``
  stays ``float``, ``str`` stays ``str``), same values, same nesting.
  ``from_records`` therefore *refuses* (returns None) anything it cannot
  round-trip: empty partitions, ragged tuples, mixed-type columns, bools,
  ints outside int64, ``str`` subclasses, and any leaf that is not an
  ``int``, ``float`` or ``str``.  Refusal is never an error — the chain
  silently falls back to the row plane.  A declared combine holds the
  same line: its combiners equal the row combine loop's exactly, in the
  same bucket order, or it refuses.
- **Born batches.** A batch drawn at a source or computed by a merge need
  not be the one ``from_records`` builds from its rows: a string
  dictionary may hold its words in another order (or words no record
  uses), and a text source's lines are born as :data:`LINE` where
  ``from_records`` of the same lines gives ``"s"``.  Only records are
  compared: ``to_records`` of the two is identical, and no kernel, combine
  or layout reads a dictionary's order — a string's place among its
  equals is its first occurrence in the codes, never its code.

A batch is a schema tree plus a column tree mirroring it:

- scalar leaf ``"i8"`` / ``"f8"`` → one NumPy array (int64 / float64);
- string leaf ``"s"`` → ``(codes, words)``: an int64 array of codes into
  ``words``, a tuple of distinct ``str`` (``from_records`` lists them in
  first-occurrence order).  A dictionary never holds a string twice, so
  equal codes are equal strings and distinct codes distinct ones;
- ``("tuple", (child, ...))`` → a tuple of child columns (records are
  fixed-arity tuples);
- ``("list", child)`` → ragged column: ``(counts, child_column)`` where
  ``counts[j]`` is record ``j``'s list length and the child column holds
  the concatenated elements.  Lists nest (PageRank's cogrouped adjacency
  lists are list-of-list-of-int);
- :data:`LINE` ``("line", "s")`` → laid out like ``("list", "s")``, a line
  of text born as its tokens: record ``j`` is ``" ".join`` of its tokens.
  Only a source builds it (:func:`token_lines`); ``from_records`` never
  does.

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

from itertools import chain as _chain, count as _count, islice
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.partitioner import key_order

__all__ = [
    "ColumnarBatch",
    "ColumnarUnsupported",
    "Drawn",
    "LINE",
    "MIN_LOWERED_ROWS",
    "are_tokens",
    "as_sidecar",
    "cogroup",
    "columns",
    "concat",
    "encode",
    "from_records",
    "grouped",
    "merged_codes",
    "take",
    "token_lines",
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
_STR_ONLY = frozenset((str,))
_TUPLE_ONLY = frozenset((tuple,))
_LIST_ONLY = frozenset((list,))

#: Lines of text born as their tokens (see the module docstring).
LINE = ("line", "s")


#: The dtypes a column leaf may hold, by schema leaf.
_LEAF_OF_DTYPE = {np.dtype(np.int64): "i8", np.dtype(np.float64): "f8"}


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a column handed out may become a cached
    block's sidecar, so a kernel that writes into its input must raise
    instead of corrupting every later reader of the block."""
    array.flags.writeable = False
    return array


def encode(values: List[str]) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """The ``"s"`` column of a list of ``str``: codes into the distinct
    strings, listed in first-occurrence order."""
    code_of = dict(zip(dict.fromkeys(values), _count()))
    codes = np.fromiter(map(code_of.__getitem__, values), dtype=np.int64, count=len(values))
    return _frozen(codes), tuple(code_of)


def _build(values: List[Any]) -> Tuple[Any, Any]:
    """Infer ``(schema, column)`` for one field across all records.

    Validates exact Python types as it goes — ``type(v) is int`` (which
    excludes ``bool``), ``type(v) is float`` — so the round trip can
    rebuild records bit-identically.  Raises :class:`_Refuse` on anything
    mixed, ragged, or not an ``int``, ``float``, ``str``, tuple or list.
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
    if t0 is str:
        if not _STR_ONLY.issuperset(map(type, values)):
            raise _Refuse
        return "s", encode(values)
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

    ``ndarray.tolist`` already yields native ``int``/``float`` objects, and
    a string leaf hands out its dictionary's ``str`` objects, so types
    round-trip exactly.
    """
    if type(schema) is str:
        if schema == "s":
            codes, words = column
            return list(map(words.__getitem__, codes.tolist()))
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
    if schema[0] == "line":
        tokens = iter(flat)
        return [" ".join(islice(tokens, count)) for count in counts.tolist()]
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
    list's start in the child axis plus a ramp over its length.  A string
    leaf gathers its codes and keeps its dictionary.
    """
    if type(schema) is str:
        if schema == "s":
            return column[0][idx], column[1]
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
    if type(schema) is str:
        if schema == "s":
            return column[0][start:stop], column[1]
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
    if type(schema) is str:
        if schema == "s":
            return _concat_strings(trees)
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


def _concat_strings(trees: List[Tuple[np.ndarray, Tuple[str, ...]]]) -> Any:
    """String columns joined (:func:`merged_codes`)."""
    codes, words = merged_codes(trees)
    return np.concatenate(codes), words


def merged_codes(trees: List[Tuple[np.ndarray, Tuple[str, ...]]]) -> Any:
    """String columns on one dictionary: each column's codes as they are
    when every dictionary is the first one (the same object, or equal),
    else remapped into one merged dictionary — Python work per distinct
    string, never per record.  Returns ``(codes per column, words)``."""
    first = trees[0][1]
    if all(words is first or words == first for _codes, words in trees):
        return [codes for codes, _words in trees], first
    code_of = dict(zip(dict.fromkeys(_chain.from_iterable(w for _c, w in trees)), _count()))
    remapped = [
        np.fromiter(map(code_of.__getitem__, words), dtype=np.int64, count=len(words))[codes]
        for codes, words in trees
    ]
    return remapped, tuple(code_of)


def _vacuous(schema: Any, column: Any) -> bool:
    """Does some list level of this column tree hold no element at all?

    ``from_records`` gives such a level its placeholder leaf, whatever the
    tree says, so a batch built from this one could not promise its schema.
    """
    if type(schema) is str:
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
    but must round-trip as ``bool``); ints outside int64; ``str``
    subclasses; any other leaf (bytes, dicts, None, objects).  A ``str``
    field becomes a string leaf, never :data:`LINE`.
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


def are_tokens(words: Sequence[str]) -> bool:
    """Whether every word is a single token (``w.split() == [w]``: neither
    empty nor holding whitespace), so that a line joined from them splits
    back into exactly them — the condition for :func:`token_lines`."""
    return all(w.split() == [w] for w in words)


def token_lines(codes: np.ndarray, words: Tuple[str, ...], per_line: int) -> Drawn:
    """Lines of text drawn as their tokens, a :data:`LINE` batch: line ``j``
    is the space-joined ``words[c]`` for the ``per_line`` codes
    ``codes[j * per_line:(j + 1) * per_line]``.

    ``words`` must be distinct and :func:`are_tokens`; the caller checks
    that once for its dictionary, not here on every partition.  An empty
    partition is ``[]``, as in :func:`columns`.  The codes are made
    read-only.
    """
    if per_line <= 0 or len(codes) % per_line:
        raise ValueError(f"token_lines(): {len(codes)} codes are not lines of {per_line}")
    lines = len(codes) // per_line
    if lines == 0:
        return []
    counts = _frozen(np.full(lines, per_line, dtype=np.int64))
    return ColumnarBatch(LINE, (counts, (_frozen(codes), tuple(words))), lines)


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


def grouped(value_schema: Any, values: Any, target: np.ndarray, n: int) -> Tuple[Any, Any]:
    """The ``("list", value_schema)`` column of ``n`` groups: value ``j``
    joins group ``target[j]``, and a group keeps its values in their order."""
    return (
        np.bincount(target, minlength=n),
        take(value_schema, values, np.argsort(target, kind="stable")),
    )


def cogroup(left: ColumnarBatch, right: ColumnarBatch) -> Optional[ColumnarBatch]:
    """Two-sided cogroup of ``(key, value)`` batches, by sort.

    One ``(key, ([left values], [right values]))`` record per distinct key:
    exactly the batch ``from_records`` builds from the row cogroup's output
    (``CoGroupedRDD``) — keys in ``partitioner.key_order`` with one
    bucket, the left side read first, and each group's values in their
    side's order.  None where that cannot be promised: a non-``i8`` key, an
    empty side, or a list level holding no element anywhere
    (``from_records`` would infer its placeholder leaf).
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
    layout = key_order("i8", np.concatenate((left.data[0], right.data[0])), 1)
    target = layout.targets()
    n = len(layout.pick)
    split = left.length
    schemas = []
    groups = []
    for side, at in zip(sides, (target[:split], target[split:])):
        value_schema = side.schema[1][1]
        schemas.append(("list", value_schema))
        groups.append(grouped(value_schema, side.data[1], at, n))
    return ColumnarBatch(
        ("tuple", ("i8", ("tuple", tuple(schemas)))), (layout.keys, tuple(groups)), n
    )


def as_sidecar(batch: ColumnarBatch) -> Optional[ColumnarBatch]:
    """``batch``, made read-only, when it can stand in for ``from_records``
    of its rows as a cached block's sidecar: the same records, and the
    schema ``from_records`` infers — which it would not be where a list
    level holds no element (a placeholder leaf is inferred there).  A
    string dictionary may differ (see "Born batches").  Else None."""
    if _vacuous(batch.schema, batch.data):
        return None
    _freeze(batch.schema, batch.data)
    return batch


def _freeze(schema: Any, column: Any) -> None:
    """Make every array of one column tree read-only."""
    if type(schema) is str:
        _frozen(column[0] if schema == "s" else column)
    elif schema[0] == "tuple":
        for child, col in zip(schema[1], column):
            _freeze(child, col)
    else:
        _frozen(column[0])
        _freeze(schema[1], column[1])
