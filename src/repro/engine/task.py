"""Task descriptors for the event-driven scheduler.

Tasks exist only at materialisation points, as in Spark: result tasks
(pipelined narrow chains ending at an action), shuffle map tasks (pipelined
chains ending at a shuffle write), and Flint's asynchronous checkpoint write
tasks.  Everything between those points is computed inline within a task.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.obs import SpanEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.dependencies import ShuffleDependency
    from repro.engine.rdd import RDD
    from repro.engine.buckets import MapOutput


class TaskKind(enum.Enum):
    RESULT = "result"
    SHUFFLE_MAP = "shuffle_map"
    CHECKPOINT = "checkpoint"


@dataclass
class TaskSpec:
    """An executable unit of work, deduplicated by :attr:`key`."""

    kind: TaskKind
    rdd: "RDD"
    partition: int
    # RESULT: the action's per-partition function.
    func: Optional[Callable[[List[Any]], Any]] = None
    # SHUFFLE_MAP: the shuffle being written.
    dep: Optional["ShuffleDependency"] = None
    # CHECKPOINT: the captured partition payload.
    data: Any = None
    nbytes: int = 0
    preferred_worker_id: Optional[str] = None
    # RESULT: the submitting job.  Two concurrent jobs may act on the same
    # RDD, so result identity must include the job; map and checkpoint work
    # stays job-agnostic (any job's output satisfies every consumer).
    job_id: Optional[int] = None
    # key is consulted on every scheduler dict/set operation; compute the
    # tuple eagerly (identifying fields never change after construction) so
    # lookups are a plain attribute read, and use the kind's value string —
    # its hash is cached on the interned str object, unlike Enum's per-call
    # name hashing.
    key: Tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == TaskKind.SHUFFLE_MAP:
            self.key = (self.kind.value, self.dep.shuffle_id, self.partition)
        elif self.kind == TaskKind.RESULT:
            self.key = (self.kind.value, self.rdd.rdd_id, self.partition, self.job_id)
        else:
            self.key = (self.kind.value, self.rdd.rdd_id, self.partition)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskSpec({self.kind.value}, rdd={self.rdd.rdd_id}, p={self.partition})"


@dataclass
class PendingPut:
    """A deferred block-manager insert (applied at task completion).

    ``rdd`` lets the scheduler drop puts whose RDD was unpersisted while the
    task was in flight — with concurrent jobs, a sibling job's unpersist can
    land mid-task, and applying the put anyway would leak an unowned block.
    ``batch`` is the partition's columns as the task computed them (a
    source drawn as columns, a reducer's merge): the block's columnar
    sidecar from the start.
    """

    block_id: str
    data: Any
    nbytes: int
    spill: bool = False
    rdd: Any = None
    batch: Any = None


@dataclass
class ComputedPartition:
    """A partition materialised during task execution.

    Reported to the fault-tolerance manager at completion so it can track
    the lineage frontier and capture checkpoint payloads.  ``data`` is the
    partition's rows, or the ``ColumnarBatch`` it was computed as.
    """

    rdd: "RDD"
    partition: int
    data: Any
    nbytes: int


@dataclass
class RunningTask:
    """Bookkeeping for a dispatched task awaiting its completion event."""

    spec: TaskSpec
    worker_id: str
    started_at: float
    duration: float
    # Deferred side effects captured by the data-plane execution:
    result: Any = None
    pending_puts: List[PendingPut] = field(default_factory=list)
    map_output: Optional["MapOutput"] = None
    computed: List[ComputedPartition] = field(default_factory=list)
    completion_event: Any = None
    # The job whose frontier this task was dispatched from (None for
    # checkpoint writes); drives per-job and per-pool slot accounting.
    job: Any = None

    def span(self, end: float, status: str) -> SpanEvent:
        spec = self.spec
        rdd = spec.dep.rdd if spec.kind == TaskKind.SHUFFLE_MAP else spec.rdd
        job = self.job
        return SpanEvent(
            kind="task",
            name=f"{spec.kind.value} rdd{rdd.rdd_id}[{spec.partition}]",
            start=self.started_at,
            end=end,
            worker=self.worker_id,
            job_id=job.job_id if job is not None else None,
            pool=job.pool if job is not None else None,
            status=status,
            attrs={
                "task_kind": spec.kind.value,
                "rdd": rdd.rdd_id,
                "partition": spec.partition,
            },
        )
