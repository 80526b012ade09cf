"""The slot table: how many tasks each live worker is running.

One book for compute slots and for the checkpoint-stream cap.  A worker is
in the table from the moment it joins until it dies (revoked *or*
terminated); releasing a slot that a live worker does not hold is a bug and
raises, while a completion arriving for a worker already forgotten is an
explicit no-op — its slots went with it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.worker import Worker

#: Concurrent checkpoint writes per worker.  Checkpoint tasks are I/O-bound
#: (one writer saturates a node's HDFS pipeline), so at most one runs per
#: worker — they degrade co-located compute proportionally (§3.1.1) instead
#: of starving the job of slots.
MAX_CHECKPOINT_TASKS_PER_WORKER = 1


class SlotTable:
    """Tasks in flight per live worker (all kinds, and checkpoint writes)."""

    def __init__(self) -> None:
        #: worker id -> tasks in flight (also ``TaskScheduler.busy``).
        self.busy: Dict[str, int] = {}
        self._checkpoint_busy: Dict[str, int] = {}

    def add_worker(self, worker_id: str) -> None:
        self.busy.setdefault(worker_id, 0)
        self._checkpoint_busy.setdefault(worker_id, 0)

    def forget_worker(self, worker_id: str) -> None:
        """The worker died; whatever it was running is gone with it."""
        self.busy.pop(worker_id, None)
        self._checkpoint_busy.pop(worker_id, None)

    def free_workers(self, live: List["Worker"], checkpoint: bool) -> List["Worker"]:
        """The workers among ``live`` that can take one more task."""
        busy = self.busy
        free = [w for w in live if busy[w.worker_id] < w.slots]
        if checkpoint:
            writing = self._checkpoint_busy
            free = [w for w in free if writing[w.worker_id] < MAX_CHECKPOINT_TASKS_PER_WORKER]
        return free

    def load(self, worker: "Worker") -> float:
        """Fraction of the worker's slots in use."""
        return self.busy[worker.worker_id] / worker.slots

    def acquire(self, worker_id: str, checkpoint: bool) -> None:
        self.busy[worker_id] += 1
        if checkpoint:
            self._checkpoint_busy[worker_id] += 1

    def release(self, worker_id: str, checkpoint: bool) -> None:
        """Give back the slot a finished or abandoned task held."""
        if worker_id not in self.busy:
            return
        if self.busy[worker_id] < 1 or (checkpoint and self._checkpoint_busy[worker_id] < 1):
            raise RuntimeError(f"worker {worker_id} released a slot it does not hold")
        self.busy[worker_id] -= 1
        if checkpoint:
            self._checkpoint_busy[worker_id] -= 1
