"""Flint's attachment points on the scheduler (paper §4).

What the scheduler does *for* the fault-tolerance policy, at two
task-completion hooks: materialisation-point partitions were computed
(→ partition computed / RDD generated / RDD materialised notifications and
checkpoint payload capture), and a checkpoint write task finished (→ durable
record, checkpoint GC, RDD checkpointed notification).  The checkpoint-task
*queue* stays on the scheduler, which dispatches those tasks like any other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set

from repro.engine.checkpoint import CheckpointWriteError
from repro.engine.columnar import ColumnarBatch
from repro.engine.task import ComputedPartition, TaskKind, TaskSpec
from repro.obs import SpanEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.worker import Worker
    from repro.engine.rdd import RDD
    from repro.engine.scheduler import TaskScheduler


class FaultToleranceHooks:
    """Tracks materialisations and feeds the checkpoint-task queue."""

    def __init__(self, scheduler: "TaskScheduler"):
        self.scheduler = scheduler
        self.context = scheduler.context
        self._seen_partitions: Dict[int, Set[int]] = {}
        self._generated: Set[int] = set()
        self._materialised: Set[int] = set()

    def partitions_computed(
        self, computed: List[ComputedPartition], worker: "Worker", now: float
    ) -> None:
        """Track materialisations and capture checkpoint payloads."""
        ft = self.context.ft_manager
        obs = self.context.obs
        newly_generated: List["RDD"] = []
        newly_materialised: List["RDD"] = []
        for cp in computed:
            if ft is not None:
                ft.on_partition_computed(cp, now)
            seen = self._seen_partitions.setdefault(cp.rdd.rdd_id, set())
            if not seen and cp.rdd.rdd_id not in self._generated:
                self._generated.add(cp.rdd.rdd_id)
                newly_generated.append(cp.rdd)
            if cp.partition in seen and obs.enabled:
                # This materialisation-point partition was computed before:
                # its earlier copy was lost (revocation, eviction) and
                # lineage just re-derived it — one tick of the Figure 3
                # recomputation storm.
                obs.bus.emit(SpanEvent(
                    kind="recompute",
                    name=f"recompute rdd{cp.rdd.rdd_id}[{cp.partition}]",
                    start=now,
                    worker=worker.worker_id,
                    status="instant",
                    attrs={"rdd": cp.rdd.rdd_id, "partition": cp.partition},
                ))
            seen.add(cp.partition)
            if (
                len(seen) >= cp.rdd.num_partitions
                and cp.rdd.rdd_id not in self._materialised
            ):
                self._materialised.add(cp.rdd.rdd_id)
                newly_materialised.append(cp.rdd)
        if ft is not None:
            # Generation first: marking an RDD as its first partition lands
            # lets every subsequent partition be captured as it is computed
            # (Flint's partition-level checkpointing, §4).
            for rdd in newly_generated:
                ft.on_rdd_generated(rdd, now)
            for rdd in newly_materialised:
                ft.on_rdd_materialized(rdd, now)
        registry = self.context.checkpoints
        for cp in computed:
            if cp.rdd.manual_checkpoint and not registry.is_marked(cp.rdd):
                registry.mark(cp.rdd)
            if registry.is_marked(cp.rdd) and not registry.has_partition(cp.rdd, cp.partition):
                data = cp.data
                if type(data) is ColumnarBatch:
                    # Checkpoints hold rows; a partition computed as a
                    # batch becomes rows only when it is captured.
                    data = data.to_records()
                self.scheduler.enqueue_checkpoint(
                    TaskSpec(
                        TaskKind.CHECKPOINT,
                        cp.rdd,
                        cp.partition,
                        data=data,
                        nbytes=cp.nbytes,
                        preferred_worker_id=worker.worker_id,
                    )
                )

    def checkpoint_written(self, spec: TaskSpec, now: float) -> None:
        """A checkpoint write task completed: make the partition durable."""
        registry = self.context.checkpoints
        try:
            registry.record_write(spec.rdd, spec.partition, spec.data, spec.nbytes, now)
        except CheckpointWriteError:
            # Durable write failed (injected DFS fault).  The partition
            # is still only volatile; re-queue the write so the frontier
            # eventually advances once the fault clears.
            self.scheduler.stats.checkpoint_write_failures += 1
            self.scheduler.enqueue_checkpoint(spec)
        else:
            ft = self.context.ft_manager
            if registry.is_fully_checkpointed(spec.rdd):
                registry.gc_after_checkpoint(spec.rdd)
                if ft is not None:
                    ft.on_rdd_checkpointed(spec.rdd, now)
