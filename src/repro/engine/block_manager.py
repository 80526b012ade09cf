"""Per-worker block store: Spark's BlockManager.

Cached RDD partitions live here.  The store is capacity-bounded (40% of
instance memory by default); inserting past capacity evicts least-recently
used blocks, spilling them to the worker's local SSD when it has room and
dropping them otherwise.  Dropped blocks must be recomputed from lineage —
under large simultaneous revocations this is precisely the memory-pressure
recomputation storm of Figure 3.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.engine.columnar import ColumnarBatch, from_records
from repro.storage.local_disk import DiskFullError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.worker import Worker
    from repro.engine.block_index import BlockLocationIndex


def block_id_for(rdd_id: int, partition: int) -> str:
    """Canonical cache key for an RDD partition."""
    return f"rdd_{rdd_id}_{partition}"


@dataclass
class BlockStats:
    """Counters for cache behaviour (used by tests and diagnostics)."""

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    puts: int = 0
    evictions_to_disk: int = 0
    drops: int = 0


#: ``_Block.batch`` once ``from_records`` has refused the block's rows, so
#: that a block which cannot columnarise is scanned once, not per read.
_REFUSED = object()


@dataclass
class _Block:
    data: Any
    nbytes: int
    spill: bool = False
    #: Columnar form of ``data``: seeded by ``put(batch=)`` for a partition
    #: computed as a batch, else set by :meth:`BlockManager.columnar` (to
    #: :data:`_REFUSED` when the rows cannot columnarise).  It lives on the
    #: entry so that every way the entry leaves memory (LRU drop or spill,
    #: remove, overwrite, revocation) takes it along.
    batch: Any = None


class BlockManager:
    """LRU in-memory block cache with local-disk spill for one worker."""

    _SPILL_PREFIX = "spill/"

    def __init__(
        self,
        worker: "Worker",
        capacity_bytes: Optional[int] = None,
        index: Optional["BlockLocationIndex"] = None,
    ):
        self.worker = worker
        self.capacity_bytes = (
            worker.storage_memory_bytes if capacity_bytes is None else int(capacity_bytes)
        )
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._memory: "OrderedDict[str, _Block]" = OrderedDict()
        self._used = 0
        self.stats = BlockStats()
        #: Driver-side location index; every presence change is mirrored
        #: there so cluster-wide lookups never scan workers.
        self.index = index

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def memory_block_ids(self) -> List[str]:
        """Ids of blocks currently resident in memory (LRU -> MRU order)."""
        return list(self._memory)

    # ------------------------------------------------------------------
    def put(
        self,
        block_id: str,
        data: Any,
        nbytes: int,
        spill: bool = False,
        batch: Optional[ColumnarBatch] = None,
    ) -> bool:
        """Insert a block, evicting LRU blocks as needed.

        ``spill`` selects the storage level: False is Spark's default
        MEMORY_ONLY (evicted blocks are *dropped* and must be recomputed);
        True is MEMORY_AND_DISK (evicted blocks spill to the local SSD).
        ``batch`` is ``data``'s columnar form when the caller already holds
        it (a source drawn as columns, a reducer's merge; see
        ``columnar.as_sidecar``): the entry's sidecar from the start, so
        :meth:`columnar` never converts this block.

        Returns True if the block ended up in memory.  A block larger than
        the whole store is rejected outright (Spark drops such blocks).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if isinstance(data, ColumnarBatch):
            # Plane-boundary rule: blocks, shuffle buckets, checkpoints and
            # action results are always row-form.  A batch reaching the
            # cache means a kernel leaked its internal representation.
            raise TypeError(
                "ColumnarBatch must not cross the block-manager boundary; "
                "convert with to_records() first"
            )
        self.stats.puts += 1
        if nbytes > self.capacity_bytes:
            # Rejecting the oversized replacement still invalidates any
            # existing copy: the caller produced a new version of this
            # block, so the old bytes (memory or spill) are stale and the
            # location index must forget this worker.
            old = self._memory.pop(block_id, None)
            if old is not None:
                self._used -= old.nbytes
            spilled = self.worker.local_disk.delete(self._SPILL_PREFIX + block_id)
            if (old is not None or spilled) and self.index is not None:
                self.index.remove(block_id, self.worker.worker_id)
            self.stats.drops += 1
            return False
        if block_id in self._memory:
            old = self._memory.pop(block_id)
            self._used -= old.nbytes
        # Drop a stale spilled copy, if any: memory now holds the truth.
        self.worker.local_disk.delete(self._SPILL_PREFIX + block_id)
        while self._used + nbytes > self.capacity_bytes:
            self._evict_one()
        self._memory[block_id] = _Block(data, nbytes, spill, batch)
        self._used += nbytes
        if self.index is not None:
            self.index.add(block_id, self.worker)
        return True

    def _evict_one(self) -> None:
        victim_id, victim = self._memory.popitem(last=False)
        self._used -= victim.nbytes
        if not victim.spill:
            self.stats.drops += 1
            if self.index is not None:
                self.index.remove(victim_id, self.worker.worker_id)
            return
        try:
            self.worker.local_disk.put(self._SPILL_PREFIX + victim_id, victim.data, victim.nbytes)
            self.stats.evictions_to_disk += 1
        except DiskFullError:
            self.stats.drops += 1
            if self.index is not None:
                self.index.remove(victim_id, self.worker.worker_id)

    def get(self, block_id: str) -> Optional[Tuple[Any, int, str]]:
        """Fetch a block: returns ``(data, nbytes, 'memory'|'disk')`` or None."""
        block = self._memory.get(block_id)
        if block is not None:
            self._memory.move_to_end(block_id)
            self.stats.hits_memory += 1
            return block.data, block.nbytes, "memory"
        spill_key = self._SPILL_PREFIX + block_id
        if self.worker.local_disk.has(spill_key):
            self.stats.hits_disk += 1
            return (
                self.worker.local_disk.get(spill_key),
                self.worker.local_disk.size_of(spill_key),
                "disk",
            )
        self.stats.misses += 1
        return None

    def columnar(self, block_id: str, rows: Any) -> Optional[ColumnarBatch]:
        """``from_records(rows)``, converted once while ``rows`` is this
        memory-resident block's payload (the block's derived sidecar) — a
        refusal too is remembered for the block."""
        block = self._memory.get(block_id)
        if block is None or block.data is not rows:
            return from_records(rows)
        if block.batch is None:
            batch = from_records(rows)
            block.batch = _REFUSED if batch is None else batch
        return None if block.batch is _REFUSED else block.batch

    def has(self, block_id: str) -> bool:
        return block_id in self._memory or self.worker.local_disk.has(self._SPILL_PREFIX + block_id)

    def remove(self, block_id: str) -> bool:
        """Drop a block from memory and spill; True if anything was removed."""
        removed = False
        block = self._memory.pop(block_id, None)
        if block is not None:
            self._used -= block.nbytes
            removed = True
        if self.worker.local_disk.delete(self._SPILL_PREFIX + block_id):
            removed = True
        if removed and self.index is not None:
            self.index.remove(block_id, self.worker.worker_id)
        return removed

    def note_spill_deleted(self, block_id: str) -> None:
        """A spilled copy was deleted externally (shuffle-space eviction).

        Memory and spill copies are mutually exclusive (``put`` drops the
        stale spill), so losing the spill file means the block is gone.
        """
        if self.index is not None and block_id not in self._memory:
            self.index.remove(block_id, self.worker.worker_id)

    def remove_rdd(self, rdd_id: int) -> int:
        """Drop every cached partition of one RDD; returns count removed."""
        prefix = f"rdd_{rdd_id}_"
        doomed = [b for b in self._memory if b.startswith(prefix)]
        doomed += [
            k[len(self._SPILL_PREFIX) :]
            for k in self.worker.local_disk.keys()
            if k.startswith(self._SPILL_PREFIX + prefix)
        ]
        removed = 0
        for block_id in set(doomed):
            if self.remove(block_id):
                removed += 1
        return removed

    def clear(self) -> None:
        """Wipe the store on revocation.

        The worker's local disk (and with it every spilled copy) dies in the
        same instant — ``Worker.kill`` clears it before calling here — so the
        location index forgets *all* of this worker's blocks, not just the
        memory-resident ones.
        """
        self._memory.clear()
        self._used = 0
        if self.index is not None:
            self.index.purge_worker(self.worker.worker_id)
