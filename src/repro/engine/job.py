"""One submitted action: its progress, its timing, and the caller's handle."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.obs import SpanEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.rdd import RDD
    from repro.engine.scheduler import TaskScheduler


class JobHandle:
    """A submitted job: inspect it, wait on it, time it.

    The scheduler keeps its per-job books (results per partition, tasks in
    flight) on this same object.  ``wait()`` drives the simulation through
    the scheduler's one drive loop (``TaskScheduler.pump``) until the job
    retires, so a lone job driven through a handle is bit-identical to the
    synchronous path.  Waits may nest: an interactive client's ``wait()``
    can run from an arrival event fired inside a batch job's own wait, and
    the multiplexed rounds give both jobs slots.
    """

    _UNSET = object()

    def __init__(
        self,
        scheduler: "TaskScheduler",
        rdd: "RDD",
        func: Callable[[List[Any]], Any],
        job_id: int,
        pool: str,
        name: Optional[str],
        on_done: Optional[Callable[["JobHandle"], None]],
    ):
        self._scheduler = scheduler
        self.rdd = rdd
        self.func = func
        self.job_id = job_id
        #: Name of the scheduling pool the job was submitted into.
        self.pool = pool
        self.name = name or f"job-{job_id}"
        self.submitted_at = scheduler.env.now
        self.first_dispatch_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.on_done = on_done
        self.done = False
        self.failed = False
        #: Tasks currently in flight for this job (results + maps dispatched
        #: from its frontier); the fair policy shares slots by these counts.
        self.running_tasks = 0
        self.results: List[Any] = [self._UNSET] * rdd.num_partitions
        self.remaining = rdd.num_partitions

    def set_result(self, partition: int, value: Any) -> None:
        if self.results[partition] is self._UNSET:
            self.remaining -= 1
        self.results[partition] = value

    def has_result(self, partition: int) -> bool:
        return self.results[partition] is not self._UNSET

    @property
    def queue_delay(self) -> Optional[float]:
        """Simulated seconds between submission and first dispatch."""
        if self.first_dispatch_at is None:
            return None
        return self.first_dispatch_at - self.submitted_at

    @property
    def makespan(self) -> Optional[float]:
        """Simulated seconds between submission and completion."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def wait(self) -> List[Any]:
        """Block (in simulated time) until the job completes; return results."""
        from repro.engine.scheduler import EngineError  # scheduler imports this module

        scheduler = self._scheduler
        try:
            scheduler.pump(lambda: self.done, f"job {self.name!r}")
        except BaseException:
            # Mirror the seed's ``finally: self.job = None``: an exception
            # unwinding through the wait abandons the job rather than
            # leaving it wedged in the in-flight set.
            scheduler._finish(self, failed=True)
            raise
        if self.failed:
            raise EngineError(f"job {self.name!r} was abandoned")
        return list(self.results)

    def span(self, end: float, status: str, tasks: int) -> SpanEvent:
        return SpanEvent(
            kind="job",
            name=self.name,
            start=self.submitted_at,
            end=end,
            job_id=self.job_id,
            pool=self.pool,
            status=status,
            attrs={"tasks": tasks, "queue_delay": self.queue_delay},
        )
