"""Checkpoint registry: partition-level RDD checkpoints in the DFS.

Flint modifies Spark to checkpoint at *partition* granularity (§4): as each
task finishes a partition of a marked RDD, an asynchronous write task ships
it to HDFS.  The registry tracks which partitions are durably written, serves
them during recomputation, and garbage-collects checkpoints made unreachable
when a descendant RDD is checkpointed (§4, "Checkpoint Garbage Collection").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.engine import lineage
from repro.obs import SpanEvent
from repro.storage.dfs import DistributedFileSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.rdd import RDD


class CheckpointWriteError(RuntimeError):
    """A durable checkpoint write failed (injected DFS I/O fault)."""

    def __init__(self, rdd_id: int, partition: int):
        super().__init__(f"checkpoint write failed for rdd {rdd_id} partition {partition}")
        self.rdd_id = rdd_id
        self.partition = partition


class CheckpointRegistry:
    """Driver-side record of checkpointed RDD partitions."""

    def __init__(self, dfs: DistributedFileSystem, obs=None):
        self.dfs = dfs
        #: Observability hook (attribute-wired by the engine context);
        #: None keeps the write/GC paths branch-free.
        self.obs = obs
        self._marked: Set[int] = set()
        self._written: Dict[int, Set[int]] = {}
        self._num_partitions: Dict[int, int] = {}
        self.bytes_written = 0
        self.partitions_written = 0
        self.gc_deleted = 0
        #: Callbacks ``(rdd_id, partition | None, available: bool)`` fired
        #: when a checkpoint lands or is deleted (partition None = whole
        #: RDD), so readiness can drop frontiers whose walks read it.
        self._listeners: List[Callable[[int, Optional[int], bool], None]] = []
        #: Fault-injection point: consulted at the top of ``record_write``;
        #: returning True makes the write raise :class:`CheckpointWriteError`
        #: before any state mutates (the scheduler re-queues the task).
        self.write_failure_hook: Optional[Callable[[int, int], bool]] = None

    def add_listener(self, listener: Callable[[int, Optional[int], bool], None]) -> None:
        self._listeners.append(listener)

    def _notify(self, rdd_id: int, partition: Optional[int], available: bool) -> None:
        for listener in self._listeners:
            listener(rdd_id, partition, available)

    @staticmethod
    def path_for(rdd_id: int, partition: int) -> str:
        return f"ckpt/rdd_{rdd_id}/part_{partition}"

    @staticmethod
    def rdd_prefix(rdd_id: int) -> str:
        return f"ckpt/rdd_{rdd_id}/"

    # ------------------------------------------------------------------
    def mark(self, rdd: "RDD") -> None:
        """Flag an RDD so its partitions are checkpointed as they appear."""
        self._marked.add(rdd.rdd_id)
        self._num_partitions[rdd.rdd_id] = rdd.num_partitions

    def unmark(self, rdd: "RDD") -> None:
        self._marked.discard(rdd.rdd_id)

    def is_marked(self, rdd: "RDD") -> bool:
        return rdd.rdd_id in self._marked

    def has_partition(self, rdd: "RDD", partition: int) -> bool:
        """True when this partition's checkpoint is durably in the DFS."""
        return self.dfs.exists(self.path_for(rdd.rdd_id, partition))

    def is_fully_checkpointed(self, rdd: "RDD") -> bool:
        written = self._written.get(rdd.rdd_id, set())
        return len(written) >= rdd.num_partitions and all(
            self.dfs.exists(self.path_for(rdd.rdd_id, p)) for p in range(rdd.num_partitions)
        )

    def record_write(self, rdd: "RDD", partition: int, data, nbytes: int, t: float) -> None:
        """Store one partition durably (called when the write task finishes).

        Raises:
            CheckpointWriteError: when the installed fault hook fails the
                write; nothing is mutated in that case.
        """
        if self.write_failure_hook is not None and self.write_failure_hook(
            rdd.rdd_id, partition
        ):
            raise CheckpointWriteError(rdd.rdd_id, partition)
        self.dfs.put(self.path_for(rdd.rdd_id, partition), data, nbytes, t)
        self._written.setdefault(rdd.rdd_id, set()).add(partition)
        self._num_partitions.setdefault(rdd.rdd_id, rdd.num_partitions)
        self.bytes_written += nbytes
        self.partitions_written += 1
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.bus.emit(SpanEvent(
                kind="checkpoint-write",
                name=f"ckpt rdd{rdd.rdd_id}[{partition}]",
                start=t,
                status="instant",
                attrs={"rdd": rdd.rdd_id, "partition": partition, "nbytes": nbytes},
            ))
        self._notify(rdd.rdd_id, partition, True)

    def discard_partition(self, rdd: "RDD", partition: int) -> bool:
        """Delete one partition's checkpoint (system-snapshot epoch resets).

        Routing deletes through the registry keeps change listeners (and so
        the scheduler's memoised frontiers) consistent with the DFS.
        """
        deleted = self.dfs.delete(self.path_for(rdd.rdd_id, partition))
        if deleted:
            written = self._written.get(rdd.rdd_id)
            if written is not None:
                written.discard(partition)
            self._notify(rdd.rdd_id, partition, False)
        return deleted

    def read_partition(self, rdd: "RDD", partition: int):
        """Fetch a checkpointed partition's records."""
        return self.dfs.get(self.path_for(rdd.rdd_id, partition))

    def partition_nbytes(self, rdd: "RDD", partition: int) -> int:
        return self.dfs.size_of(self.path_for(rdd.rdd_id, partition))

    def written_partitions(self) -> Dict[int, Set[int]]:
        """Snapshot of the registry's record: ``rdd_id -> written partitions``.

        The invariant checker compares this against what the DFS actually
        holds, so the copy is deliberate — callers must not see (or mutate)
        live internals.
        """
        return {rid: set(parts) for rid, parts in self._written.items() if parts}

    def expected_partitions(self, rdd_id: int) -> Optional[int]:
        """Partition count recorded for an RDD, or None if never seen."""
        return self._num_partitions.get(rdd_id)

    # ------------------------------------------------------------------
    def checkpointed_rdd_ids(self) -> List[int]:
        """Ids of RDDs with at least one durable partition."""
        return sorted(
            rid
            for rid, parts in self._written.items()
            if any(self.dfs.exists(self.path_for(rid, p)) for p in parts)
        )

    def gc_after_checkpoint(self, rdd: "RDD") -> int:
        """Delete ancestor checkpoints made redundant by checkpointing ``rdd``.

        Checkpointing an RDD terminates its lineage: ancestors can no longer
        be reached through it, so their checkpoints (if any) are garbage once
        this RDD is fully durable.  Returns the number of partitions deleted.
        """
        if not self.is_fully_checkpointed(rdd):
            return 0
        deleted = 0
        for ancestor in lineage.ancestors(rdd):
            # A persisted ancestor is still *live*: the program holds a
            # reference and may branch new lineage from it (KMeans keeps
            # iterating over its cached points), so its checkpoint is
            # not redundant yet.  Unpersist makes it collectable.
            if ancestor.persisted:
                continue
            if ancestor.rdd_id in self._written:
                deleted += self.dfs.delete_prefix(self.rdd_prefix(ancestor.rdd_id))
                self._written.pop(ancestor.rdd_id, None)
                self._marked.discard(ancestor.rdd_id)
                self._notify(ancestor.rdd_id, None, False)
        self.gc_deleted += deleted
        obs = self.obs
        if deleted and obs is not None and obs.enabled:
            obs.bus.emit(SpanEvent(
                kind="checkpoint-gc",
                name=f"gc after rdd{rdd.rdd_id}",
                start=obs.now(),
                status="instant",
                attrs={"rdd": rdd.rdd_id, "deleted": deleted},
            ))
        return deleted

    @property
    def stored_bytes(self) -> int:
        """Bytes of checkpoints currently retained in the DFS."""
        return sum(
            nbytes for path, nbytes in self.dfs.items() if path.startswith("ckpt/")
        )
