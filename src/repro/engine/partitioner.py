"""Partitioners for keyed (shuffle) operations.

Hashing must be deterministic across processes and runs, so we avoid
Python's salted ``hash`` for strings and use a small stable hash instead.
"""

from __future__ import annotations

import zlib
from typing import Any, Sequence, Tuple

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
