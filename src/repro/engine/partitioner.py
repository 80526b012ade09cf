"""Partitioners for keyed (shuffle) operations.

Hashing must be deterministic across processes and runs, so we avoid
Python's salted ``hash`` for strings and use a small stable hash instead.
:func:`key_order` is the hash layout of a key column: which bucket each
distinct key goes to, and in what order keys leave a bucket.
"""

from __future__ import annotations

import zlib
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: The mask every int key's hash goes through: ``stable_hash(k)`` of an int
#: is ``k & HASH_MASK``, so keys ``2**31`` apart share a hash.  Per-record
#: loops elsewhere inline it as this constant, never as a call.
HASH_MASK = 0x7FFFFFFF


def stable_hash(key: Any) -> int:
    """A deterministic, process-independent hash for common key types."""
    # Exact-type fast path: int keys dominate the shuffle hot loop (vertex
    # ids, cluster ids, user/item ids).  ``type is`` excludes bool, whose
    # branch below returns the same value anyway (int(True) == 1 & mask).
    if type(key) is int:
        return key & HASH_MASK
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key & HASH_MASK
    if isinstance(key, float):
        return zlib.crc32(repr(key).encode("utf-8"))
    if isinstance(key, tuple):
        h = 0x345678
        for item in key:
            h = (h * 1000003) ^ stable_hash(item)
        return h & HASH_MASK
    if key is None:
        return 0
    return zlib.crc32(repr(key).encode("utf-8"))


def hash_int_keys(keys: Any, num_partitions: int) -> Tuple[Any, Any]:
    """``stable_hash`` and ``HashPartitioner.partition_for`` of every key of
    an int64 NumPy column at once — for kernels that lay shuffle buckets out
    from a key array (``declared.Sum``) instead of record by record."""
    hashed = keys & HASH_MASK
    return hashed, hashed % num_partitions


def hash_str_keys(words: Sequence[str], num_partitions: int) -> Tuple[Any, Any]:
    """:func:`hash_int_keys` for ``str`` keys: ``stable_hash`` and the
    bucket of each string, one hash per string — a string column hashes its
    distinct words, not its records."""
    hashed = np.fromiter(map(stable_hash, words), np.int64, len(words))
    return hashed, hashed % num_partitions


class KeyOrder(NamedTuple):
    """Where a key column's records go in the shuffle's batch layout
    (:func:`key_order`).

    Each record belongs to a *segment* — an id in ``range(span)`` that
    equal keys share — and each distinct key leaves as one output record,
    in output order: segment ``pick[i]`` is output record ``i``.
    """

    #: The distinct keys in output order: an ``i8`` array, or a ``"s"``
    #: column ``(codes, words)`` on the input's dictionary.
    keys: Any
    #: Each input record's segment.
    segments: np.ndarray
    #: The number of segment ids (some may hold no record).
    span: int
    #: The segment of each output record, in output order.
    pick: np.ndarray
    #: Output records per bucket.
    sizes: List[int]

    def targets(self) -> np.ndarray:
        """Each input record's output record."""
        rank = np.empty(self.span, dtype=np.int64)
        rank[self.pick] = np.arange(len(self.pick))
        return rank[self.segments]


def key_order(key_schema: Any, keys: Any, n_buckets: int) -> Optional[KeyOrder]:
    """The order in which a non-empty key column's distinct keys leave a
    shuffle under a plain ``HashPartitioner``: bucket after bucket
    (``hash % n_buckets``), hash-ordered within a bucket, first occurrence
    breaking hash ties — ``buckets.bucket_map_output``'s combined rows,
    and with one bucket the ``hash_sort_key`` order of a reducer's merge
    and a cogroup.  The one definition of that order for columns: a
    declared combine (``declared.Sum``, ``declared.Group``) and
    ``columnar.cogroup`` lay their output out from it.

    Keys are ``i8`` or ``"s"`` (None for any other leaf).  A string key is
    hashed once per distinct string.  Dense ``i8`` keys (vertex ids,
    centroid indices) are counted in a table over the key range instead of
    sorted, and keys less than ``2**31`` apart never share a hash, so
    nothing ties; sparse ones go through one ``np.unique``.  A string
    column's codes are dense ids into its dictionary, so they are always
    counted, each one's first occurrence taken in the same pass.
    """
    if key_schema == "s":
        codes, words = keys
        n = len(codes)
        segments = codes
        span = len(words)
        filled = distinct = np.flatnonzero(np.bincount(codes, minlength=span))
        first = np.full(span, n, dtype=np.int64)
        np.minimum.at(first, codes, np.arange(n))
        hashed, bucket = hash_str_keys(
            list(map(words.__getitem__, distinct.tolist())), n_buckets
        )
        # CRC32 can tie two distinct strings.
        ties: Optional[np.ndarray] = first[filled]
    elif key_schema == "i8":
        low = int(keys.min())
        span = int(keys.max()) - low + 1
        if span <= min(max(8 * len(keys), 2**14), 2**31):
            # Counting wins while the range is under ~64x the records (one
            # reducer's keys, every R-th id, are ~R x): the table is held to
            # 8x the column, or 2**14 entries (128 KiB), whichever is larger.
            segments = keys - low
            filled = np.flatnonzero(np.bincount(segments, minlength=span))
            distinct = filled + low
            ties = None
        else:
            distinct, first, segments = np.unique(keys, return_index=True, return_inverse=True)
            # Only keys 2**31 or more apart can share a hash.
            ties = first if span > 2**31 else None
            span = len(distinct)
            filled = np.arange(span)
        hashed, bucket = hash_int_keys(distinct, n_buckets)
    else:
        return None
    # (bucket, hash) as one int64: a hash is below 2**32.
    place = bucket * 2**32 + hashed
    order = np.argsort(place) if ties is None else np.lexsort((ties, place))
    picked = distinct[order]
    return KeyOrder(
        picked if key_schema == "i8" else (picked, words),
        segments,
        span,
        filled[order],
        np.bincount(bucket, minlength=n_buckets).tolist(),
    )


class HashPartitioner:
    """Maps keys to ``num_partitions`` buckets by stable hash."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = int(num_partitions)

    def partition_for(self, key: Any) -> int:
        """Bucket index for ``key`` in ``[0, num_partitions)``."""
        if type(key) is int:  # inline the dominant stable_hash branch
            return (key & HASH_MASK) % self.num_partitions
        return stable_hash(key) % self.num_partitions

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashPartitioner) and other.num_partitions == self.num_partitions

    def __hash__(self) -> int:
        return hash(("HashPartitioner", self.num_partitions))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashPartitioner({self.num_partitions})"
