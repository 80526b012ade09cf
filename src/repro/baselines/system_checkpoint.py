"""System-level distributed checkpointing baseline (Figure 6b).

Systems-level approaches (VM/container snapshots, as in SpotCheck [26] and
SpotOn [30]) are application-agnostic: every interval they must persist each
worker's *entire* memory footprint — active RDDs, stale cached RDDs, shuffle
buffers, runtime state — because they cannot tell live application state
from garbage.  Flint's insight is that checkpointing only the lineage
frontier moves an order of magnitude less data.

``SystemCheckpointManager`` plugs into the engine through the same hooks as
Flint's fault-tolerance manager but, on every timer fire, snapshots every
cached block (re-writing unchanged ones — a snapshot has no notion of
incremental lineage) inflated by a system-state overhead factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.interval import clamped_interval
from repro.engine.task import TaskKind, TaskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import FlintContext
    from repro.engine.rdd import RDD
    from repro.engine.task import ComputedPartition


@dataclass
class SystemCheckpointStats:
    snapshots: int = 0
    snapshots_skipped: int = 0
    blocks_written: int = 0
    bytes_written: int = 0


class SystemCheckpointManager:
    """Whole-memory periodic snapshots, application-blind.

    Args:
        context: engine context to attach to.
        mttf_fn: cluster MTTF supplier (same interface as Flint's manager).
        system_overhead_factor: bytes written per byte of cached RDD data —
            covers shuffle buffers, JVM heap, and OS state a VM snapshot
            cannot exclude (default 2.5x).
        interval: fixed snapshot interval; None derives √(2·δ·MTTF) from the
            *system* δ, which is what a fair systems-level deployment would
            do.
    """

    def __init__(
        self,
        context: "FlintContext",
        mttf_fn,
        system_overhead_factor: float = 2.5,
        interval: Optional[float] = None,
        min_tau: float = 30.0,
    ):
        if system_overhead_factor < 1.0:
            raise ValueError("system_overhead_factor must be >= 1")
        self.context = context
        self.env = context.env
        self.mttf_fn = mttf_fn
        self.system_overhead_factor = system_overhead_factor
        self.fixed_interval = interval
        self.min_tau = min_tau
        self.stats = SystemCheckpointStats()
        self._running = False
        self._timer_event = None
        self._snapshot_epoch = 0
        context.ft_manager = self

    # ------------------------------------------------------------------
    def current_interval(self) -> float:
        if self.fixed_interval is not None:
            return self.fixed_interval
        return clamped_interval(self._system_delta(), self.mttf_fn(), self.min_tau)

    def _system_delta(self) -> float:
        """Time to write every worker's full memory image in parallel."""
        cluster = self.context.cluster
        workers = cluster.live_workers()
        if not workers:
            return 0.0
        dfs = self.env.dfs
        worst = 0.0
        for worker in workers:
            used = worker.block_manager.used_bytes if worker.block_manager else 0
            worst = max(worst, dfs.write_duration(int(used * self.system_overhead_factor)))
        return worst

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_timer()

    def stop(self) -> None:
        self._running = False
        if self._timer_event is not None:
            self.env.events.cancel(self._timer_event)
            self._timer_event = None

    def refresh(self) -> None:
        """Interface parity with Flint's manager (interval is re-derived
        lazily at each timer, so nothing to do)."""

    def _schedule_timer(self) -> None:
        if not self._running:
            return
        self._timer_event = self.env.schedule_in(
            self.current_interval(), "system_checkpoint_timer", callback=self._on_timer
        )

    def _on_timer(self, event) -> None:
        if not self._running:
            return
        self.snapshot_now()
        self._schedule_timer()

    # ------------------------------------------------------------------
    def snapshot_now(self) -> int:
        """Write every cached block (inflated by the system factor) to DFS."""
        scheduler = self.context.scheduler
        if scheduler._checkpoint_queue:
            # The previous snapshot hasn't finished flushing; a VM snapshot
            # system cannot start a new epoch mid-snapshot.
            self.stats.snapshots_skipped += 1
            return 0
        self.stats.snapshots += 1
        self._snapshot_epoch += 1
        registry = self.context.checkpoints
        rdd_index: Dict[int, "RDD"] = {r.rdd_id: r for r in self.context._rdds}
        queued = 0
        for worker in self.context.cluster.live_workers():
            manager = worker.block_manager
            if manager is None:
                continue
            for block_id in manager.memory_block_ids():
                # block ids look like rdd_<id>_<partition>
                try:
                    _prefix, rdd_id, partition = block_id.split("_")
                    rdd = rdd_index[int(rdd_id)]
                    partition = int(partition)
                except (ValueError, KeyError):
                    continue
                hit = manager.get(block_id)
                if hit is None:
                    continue
                data, nbytes, _tier = hit
                # Snapshots rewrite everything: drop the stale copy so the
                # scheduler's has-partition dedupe doesn't skip the write.
                # Deleting via the registry keeps its change listeners (and
                # the scheduler's memoised frontiers) in sync.
                registry.discard_partition(rdd, partition)
                inflated = int(nbytes * self.system_overhead_factor)
                spec = TaskSpec(
                    TaskKind.CHECKPOINT,
                    rdd,
                    partition,
                    data=data,
                    nbytes=inflated,
                    preferred_worker_id=worker.worker_id,
                )
                if scheduler.enqueue_checkpoint(spec):
                    queued += 1
                    self.stats.blocks_written += 1
                    self.stats.bytes_written += inflated
        if queued:
            scheduler.pump()
        return queued

    # ------------------------------------------------------------------
    # Engine hooks (application-blind: it reacts only to its timer)
    # ------------------------------------------------------------------
    def on_partition_computed(self, cp: "ComputedPartition", t: float) -> None:
        pass

    def on_rdd_generated(self, rdd: "RDD", t: float) -> None:
        pass

    def on_rdd_materialized(self, rdd: "RDD", t: float) -> None:
        pass

    def on_rdd_checkpointed(self, rdd: "RDD", t: float) -> None:
        pass
