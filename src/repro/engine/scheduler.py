"""Event-driven task scheduler with lineage-based fault recovery.

This is the engine's DAG scheduler + task scheduler in one: it asks
:class:`~repro.engine.readiness.Readiness` which tasks can run (results whose
inputs exist, plus the missing shuffle-map work they transitively need),
dispatches them onto worker CPU slots, and replays lost work after
revocations.  Execution is *data-plane eager, side-effect deferred*: a task's
records are computed (for real) at dispatch through a
:class:`~repro.engine.task_runtime.TaskRuntime`, its duration is charged from
the cost model, and its effects — cached blocks, shuffle outputs, results,
checkpoint writes — land only when its completion event fires.  A worker
killed mid-flight therefore loses exactly the work Spark would lose.  The
observable contract — simulated runtimes, billing, task counts, results — is
pinned by the frozen goldens in ``tests/engine/test_engine_golden.py``.

The scheduler multiplexes a *set* of in-flight jobs: ``submit_job`` is
non-blocking and returns a :class:`~repro.engine.job.JobHandle`; ``run_job``
is submit + wait and keeps the seed's exact blocking semantics.  Each
scheduling round gathers every active job's ready frontier and allocates
free slots across jobs under the root scheduling policy (``fifo`` submission
order, or ``fair`` weighted max-min across
:class:`~repro.engine.pools.Pool`\\ s, with interactive pools strictly ahead
of batch pools).  A single job under either policy dispatches in exactly the
seed's order, so single-job runs stay bit-identical.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import ClusterListener
from repro.engine.ft_hooks import FaultToleranceHooks
from repro.engine.job import JobHandle
from repro.engine.pools import DEFAULT_POOL, SCHEDULING_POLICIES, Pool, allocation_order
from repro.engine.readiness import Readiness
from repro.engine.shuffle import ShuffleFetchFailure
from repro.engine.slots import SlotTable
from repro.engine.task import RunningTask, TaskKind, TaskSpec
from repro.engine.task_runtime import TaskRuntime
from repro.storage.local_disk import DiskFullError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.worker import Worker
    from repro.engine.context import FlintContext
    from repro.engine.rdd import RDD

class EngineError(RuntimeError):
    """Unrecoverable scheduler failure (deadlock, disk exhaustion, ...)."""


@dataclass
class SchedulerStats:
    """Aggregate counters over the scheduler's lifetime."""

    tasks_completed: int = 0
    tasks_lost: int = 0
    result_tasks: int = 0
    map_tasks: int = 0
    checkpoint_tasks: int = 0
    task_time_total: float = 0.0
    checkpoint_time_total: float = 0.0
    # Fault-injection observability: dispatches abandoned because a map
    # output vanished mid-fetch, and durable checkpoint writes that failed
    # (both only occur under injected faults or real mid-dispatch loss).
    fetch_failures: int = 0
    checkpoint_write_failures: int = 0
    # Readiness observability: rounds run, resolves the per-walk memo
    # answered and computed, change events that dropped the memoised
    # frontiers, frontier walks, and the deepest ready queue.
    scheduling_rounds: int = 0
    resolve_cache_hits: int = 0
    resolve_cache_misses: int = 0
    readiness_invalidations: int = 0
    readiness_rebuilds: int = 0
    ready_queue_peak: int = 0
    # Multi-job observability.
    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    concurrent_jobs_peak: int = 0
    #: Fused data plane: multi-operator narrow chains executed as one
    #: streamed pass, and the total operator stages they covered.
    fused_chains: int = 0
    fused_stages: int = 0
    #: Columnar plane: fused chains lowered to vectorised batch kernels
    #: (and the stages they covered), plus chains that *attempted* the
    #: lowering and fell back to rows (records refused columnarisation, or
    #: a kernel raised ``ColumnarUnsupported`` on the runtime schema).  A
    #: chain whose boundary holds fewer than ``columnar.MIN_LOWERED_ROWS``
    #: records never attempts, so it counts in neither.  Neither counts a
    #: reducer's merge or a cogroup that stays on rows.  These describe
    #: *how* bodies ran, so they are excluded from :meth:`task_counts`.
    columnar_chains: int = 0
    columnar_stages: int = 0
    columnar_fallbacks: int = 0
    #: Map tasks whose declared combine (``Sum``, ``Group``) ran from a
    #: batch head.
    columnar_combines: int = 0

    def task_counts(self) -> Dict[str, int]:
        """The counters that must agree across data planes."""
        return {
            "tasks_completed": self.tasks_completed,
            "tasks_lost": self.tasks_lost,
            "result_tasks": self.result_tasks,
            "map_tasks": self.map_tasks,
            "checkpoint_tasks": self.checkpoint_tasks,
        }


class TaskScheduler(ClusterListener):
    """Dispatches tasks onto cluster slots and recovers from revocations."""

    def __init__(self, context: "FlintContext"):
        self.context = context
        self.env = context.env
        self.cluster = context.cluster
        #: Root policy for sharing slots between concurrent jobs.
        self.scheduling_policy = "fifo"
        self.slots = SlotTable()
        #: Tasks in flight per live worker: the slot table's own book, for
        #: readers (fault injector, invariant checker) — never written here.
        self.busy = self.slots.busy
        self.running: Dict[Tuple, RunningTask] = {}
        self._checkpoint_queue: "OrderedDict[Tuple, TaskSpec]" = OrderedDict()
        #: In-flight jobs by job id, in submission order (ids ascend, dicts
        #: preserve insertion order — FIFO policy iterates this directly).
        self._jobs: "OrderedDict[int, JobHandle]" = OrderedDict()
        self._next_job_id = 0
        #: Scheduling pools by name; jobs land in ``default`` unless routed.
        self.pools: Dict[str, Pool] = {DEFAULT_POOL: Pool(DEFAULT_POOL)}
        self.stats = SchedulerStats()
        #: Completed-task count per job id, maintained unconditionally (it is
        #: two dict ops per completion) so the tracing invariant can
        #: reconcile emitted task spans against the scheduler's own books.
        self.tasks_completed_by_job: Dict[int, int] = {}
        self._dispatch_rotation = 0
        # Re-entrancy guard: a fault injector may revoke workers
        # synchronously from inside a dispatch hook, and the revocation
        # listener calls back into _schedule_round while the outer round is
        # still iterating its spec list.  The inner call only sets a flag;
        # the outer round loops until no round is pending.
        self._in_round = False
        self._round_pending = False
        # Set by _request_round, cleared as a round starts (see pump).
        self._round_due = False
        self.readiness = Readiness(context, self.running, self.stats, self._request_round)
        self.ft_hooks = FaultToleranceHooks(self)
        self.cluster.add_listener(self)
        for worker in self.cluster.live_workers():
            self._register_worker(worker)

    # ------------------------------------------------------------------
    # Cluster listener hooks.  Revocation and termination are notified after
    # ``Worker.kill``, whose death listeners already dropped the worker's
    # blocks and map outputs and told Readiness.
    # ------------------------------------------------------------------
    def on_worker_joined(self, worker: "Worker", t: float) -> None:
        self._register_worker(worker)
        self._schedule_round()

    def on_worker_revoked(self, worker: "Worker", t: float) -> None:
        doomed = [rt for rt in self.running.values() if rt.worker_id == worker.worker_id]
        obs = self.context.obs
        for rt in doomed:
            self.env.events.cancel(rt.completion_event)
            rt.completion_event = None  # the event's payload is rt: break the cycle
            del self.running[rt.spec.key]
            self._note_task_left(rt)
            self.stats.tasks_lost += 1
            if obs.enabled:
                obs.bus.emit(rt.span(t, "lost"))
        self.slots.forget_worker(worker.worker_id)
        self.readiness.lost()
        self._schedule_round()

    def on_worker_terminated(self, worker: "Worker", t: float) -> None:
        # Tasks in flight there surface as stragglers, which report
        # ``lost()``, when their events fire.
        self.slots.forget_worker(worker.worker_id)

    def _register_worker(self, worker: "Worker") -> None:
        self.context.adopt_worker(worker)
        self.slots.add_worker(worker.worker_id)

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def add_pool(
        self,
        name: str,
        policy: str = "fifo",
        weight: float = 1.0,
        priority: str = "batch",
    ) -> Pool:
        """Create (or reconfigure) a scheduling pool, keeping live counters."""
        existing = self.pools.get(name)
        if existing is not None:
            Pool(name, policy=policy, weight=weight, priority=priority)  # validate
            existing.policy = policy
            existing.weight = weight
            existing.priority = priority
            return existing
        pool = Pool(name, policy=policy, weight=weight, priority=priority)
        self.pools[name] = pool
        return pool

    def get_pool(self, name: str) -> Pool:
        """The named pool, auto-created with defaults if unknown."""
        pool = self.pools.get(name)
        if pool is None:
            pool = Pool(name)
            self.pools[name] = pool
        return pool

    def set_scheduling_policy(self, policy: str) -> None:
        if policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown scheduling policy {policy!r} "
                f"(expected one of {SCHEDULING_POLICIES})"
            )
        self.scheduling_policy = policy

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def submit_job(
        self,
        rdd: "RDD",
        func: Callable[[List[Any]], Any],
        pool: Optional[str] = None,
        name: Optional[str] = None,
        on_done: Optional[Callable[[JobHandle], None]] = None,
    ) -> JobHandle:
        """Submit an action without blocking; returns a :class:`JobHandle`.

        The job joins the in-flight set and competes for slots from the next
        scheduling round.  ``on_done`` (if given) fires once, with the
        handle, inside the completion round that retires the job.
        """
        if pool is None:
            pool = self.context.current_job_pool
        job = JobHandle(self, rdd, func, self._next_job_id, pool, name, on_done)
        self._next_job_id += 1
        self.stats.jobs_submitted += 1
        self.get_pool(pool)  # an unknown pool name creates the pool
        self._jobs[job.job_id] = job
        if len(self._jobs) > self.stats.concurrent_jobs_peak:
            self.stats.concurrent_jobs_peak = len(self._jobs)
        if job.remaining == 0:
            # Zero-partition action: nothing to dispatch.
            self._finish(job)
        else:
            self._schedule_round()
        return job

    def run_job(
        self,
        rdd: "RDD",
        func: Callable[[List[Any]], Any],
        pool: Optional[str] = None,
        name: Optional[str] = None,
    ) -> List[Any]:
        """Run an action over every partition of ``rdd``; blocks in sim time.

        Submit + wait: single-job runs are bit-identical to the seed's
        blocking loop, and nested calls (an action issued from inside an
        event callback while another job waits) now multiplex instead of
        raising ``concurrent jobs are not supported``.
        """
        return self.submit_job(rdd, func, pool=pool, name=name).wait()

    def _finish(self, job: JobHandle, failed: bool = False) -> None:
        """Take ``job`` out of the in-flight set: retired complete, or
        (``failed``) abandoned by a waiter unwinding with an error."""
        if job.done:
            return
        job.done = True
        job.failed = failed
        job.finished_at = self.env.now
        self._jobs.pop(job.job_id, None)
        self.readiness.retire(job)
        if failed:
            self.stats.jobs_failed += 1
        else:
            self.stats.jobs_completed += 1
        obs = self.context.obs
        if obs.enabled:
            obs.bus.emit(job.span(
                self.env.now,
                "failed" if failed else "complete",
                self.tasks_completed_by_job.get(job.job_id, 0),
            ))
        if job.on_done is not None and not failed:
            job.on_done(job)

    def _note_task_left(self, running: RunningTask) -> None:
        """Per-job/per-pool accounting when a task leaves ``self.running``."""
        job = running.job
        if job is None:
            return
        job.running_tasks -= 1
        self.pools[job.pool].running_tasks -= 1

    # ------------------------------------------------------------------
    # Checkpoint task management (driven by the fault-tolerance manager)
    # ------------------------------------------------------------------
    def enqueue_checkpoint(self, spec: TaskSpec) -> bool:
        """Queue an asynchronous checkpoint write; dedupes by partition."""
        if spec.kind != TaskKind.CHECKPOINT:
            raise ValueError("enqueue_checkpoint requires a CHECKPOINT spec")
        if spec.key in self._checkpoint_queue or spec.key in self.running:
            return False
        if self.context.checkpoints.has_partition(spec.rdd, spec.partition):
            return False
        self._checkpoint_queue[spec.key] = spec
        self._request_round()
        return True

    def enqueue_checkpoints_for(self, rdd: "RDD") -> int:
        """Queue writes for every partition of ``rdd`` reachable in the cache.

        Partitions not currently cached anywhere are skipped — they will be
        captured the next time a task computes them.
        """
        queued = 0
        for partition in range(rdd.num_partitions):
            if self.context.checkpoints.has_partition(rdd, partition):
                continue
            found = self.context.find_block(rdd, partition, prefer=None)
            if found is None:
                continue
            data, nbytes, holder, _tier = found
            spec = TaskSpec(
                TaskKind.CHECKPOINT,
                rdd,
                partition,
                data=data,
                nbytes=nbytes,
                preferred_worker_id=holder.worker_id,
            )
            if self.enqueue_checkpoint(spec):
                queued += 1
        if queued:
            self._schedule_round()
        return queued

    # ------------------------------------------------------------------
    # Scheduling rounds
    # ------------------------------------------------------------------
    def pump(self, until: Optional[Callable[[], bool]] = None, what: str = "driver") -> None:
        """The engine's one drive loop: step events until ``until()`` holds.

        Every driver waiting in simulated time calls it once.  After a step
        a round runs only if one is due (:meth:`_request_round`); every other
        cause — completion, revocation, join, submit, fetch failure,
        ``enqueue_checkpoints_for`` — runs its round where it happens.  With
        no ``until``, settle: one round if one is due.  Raises
        :class:`EngineError`, naming ``what``, if the events run out first.
        """
        if until is None:
            if self._round_due:
                self._schedule_round()
            return
        env = self.env
        while not until():
            if not env.events:
                raise EngineError(
                    f"scheduler deadlock: {what} incomplete but no pending events "
                    f"(live workers: {self.cluster.size})"
                )
            env.step()
            if self._round_due:
                self._schedule_round()

    def _request_round(self) -> None:
        """A readiness listener dropped the frontiers, or a checkpoint write
        was queued: the next :meth:`pump` step runs a round."""
        self._round_due = True

    def _schedule_round(self) -> None:
        if self._in_round:
            self._round_pending = True
            return
        self._in_round = True
        try:
            while True:
                self._round_pending = False
                self._run_one_round()
                if not self._round_pending:
                    break
        finally:
            self._in_round = False

    def _run_one_round(self) -> None:
        self._round_due = False
        self.stats.scheduling_rounds += 1
        ckpt_specs, job_specs = self._ready_specs()
        depth = len(ckpt_specs) + sum(len(s) for _j, s in job_specs)
        if depth > self.stats.ready_queue_peak:
            self.stats.ready_queue_peak = depth
        # Checkpoint writes take the next free slots (Flint prioritises
        # bounding recomputation over marginal task latency).
        for spec in ckpt_specs:
            if spec.key in self.running:
                # Dispatched by a nested round (fault-injection path).
                continue
            worker = self._pick_worker(spec)
            if worker is None:
                # No worker can take a checkpoint write, whichever spec
                # asks (the answer depends on the slot table alone), so
                # stop probing.  Only the per-worker checkpoint-stream
                # cap is exhausted: compute slots may still be free for
                # the job tasks below.
                break
            self._dispatch(spec, worker)
        for job, spec in allocation_order(self.scheduling_policy, job_specs, self.pools):
            if spec.key in self.running:
                continue
            worker = self._pick_worker(spec)
            if worker is None:
                break
            self._dispatch(spec, worker, job)

    def _ready_specs(self) -> Tuple[List[TaskSpec], List[Tuple[JobHandle, List[TaskSpec]]]]:
        """Pending checkpoint writes plus each job's ready frontier."""
        ckpt_specs: List[TaskSpec] = []
        for key, spec in list(self._checkpoint_queue.items()):
            if key not in self.running:
                ckpt_specs.append(spec)
        job_specs: List[Tuple[JobHandle, List[TaskSpec]]] = []
        for job in list(self._jobs.values()):
            specs = self.readiness.frontier(job)
            if specs:
                job_specs.append((job, specs))
        return ckpt_specs, job_specs

    def _pick_worker(self, spec: TaskSpec) -> Optional["Worker"]:
        candidates = self.slots.free_workers(
            self.cluster.live_workers(), spec.kind == TaskKind.CHECKPOINT
        )
        if not candidates:
            return None
        if spec.preferred_worker_id is not None:
            for worker in candidates:
                if worker.worker_id == spec.preferred_worker_id:
                    return worker
        # Least-loaded, with a rotation so equal loads spread evenly.
        self._dispatch_rotation += 1
        offset = self._dispatch_rotation % len(candidates)
        rotated = candidates[offset:] + candidates[:offset]
        return min(rotated, key=self.slots.load)

    # ------------------------------------------------------------------
    # Dispatch and completion
    # ------------------------------------------------------------------
    def _dispatch(self, spec: TaskSpec, worker: "Worker", job: Optional[JobHandle] = None) -> None:
        is_checkpoint = spec.kind == TaskKind.CHECKPOINT
        self.slots.acquire(worker.worker_id, is_checkpoint)
        if is_checkpoint:
            self._checkpoint_queue.pop(spec.key, None)
        target_id = job.rdd.rdd_id if job is not None else None
        runtime = TaskRuntime(self.context, worker, target_id)
        try:
            result, map_output = runtime.run(spec)
        except ShuffleFetchFailure:
            # A map output this task depends on vanished between the
            # readiness decision and the fetch (an injected revocation of
            # the serving worker, exactly Spark's FetchFailed path).  Abandon
            # the dispatch; the lost maps are already back in the missing
            # sets, so the next round reruns them before retrying this task.
            self.stats.fetch_failures += 1
            self.slots.release(worker.worker_id, is_checkpoint)
            self.readiness.lost()
            self._schedule_round()
            return
        duration = self.context.cost_model.task_overhead + runtime.time_charged
        inj = self.context.fault_injector
        if inj is not None:
            duration = inj.scale_task_duration(spec, worker, duration)
        running = RunningTask(
            spec=spec,
            worker_id=worker.worker_id,
            started_at=self.env.now,
            duration=duration,
            result=result,
            pending_puts=runtime.pending_puts,
            map_output=map_output,
            computed=runtime.computed,
            job=job,
        )
        running.completion_event = self.env.schedule_in(
            duration, "task_done", running, callback=self._on_task_done
        )
        self.running[spec.key] = running
        self.readiness.dispatched(spec.key)
        if job is not None:
            if job.first_dispatch_at is None:
                job.first_dispatch_at = self.env.now
            job.running_tasks += 1
            self.pools[job.pool].running_tasks += 1
        if inj is not None:
            # Mid-stage / mid-checkpoint-write injection point: the task is
            # in flight, so a revocation fired here loses exactly this work.
            inj.on_task_dispatched(spec, worker)

    def _on_task_done(self, event) -> None:
        running: RunningTask = event.payload
        # The event's payload is this task: without the back-reference the
        # pair is freed by reference counting, not by the cyclic collector.
        running.completion_event = None
        spec = running.spec
        self.running.pop(spec.key, None)
        self._note_task_left(running)
        self.slots.release(running.worker_id, spec.kind == TaskKind.CHECKPOINT)
        worker = self.cluster.workers.get(running.worker_id)
        if worker is None or not worker.alive:
            # The completion event should have been cancelled at revocation;
            # treat a straggler as lost work.  Its spec left ``running``
            # with no change event fired, so a frontier memoised while it
            # ran is no longer faithful.
            self.stats.tasks_lost += 1
            obs = self.context.obs
            if obs.enabled:
                obs.bus.emit(running.span(self.env.now, "lost"))
            self.readiness.lost()
            self._schedule_round()
            return

        now = self.env.now
        self.stats.tasks_completed += 1
        self.stats.task_time_total += running.duration
        job = running.job
        if job is not None:
            self.tasks_completed_by_job[job.job_id] = (
                self.tasks_completed_by_job.get(job.job_id, 0) + 1
            )
            self.pools[job.pool].tasks_completed += 1
        obs = self.context.obs
        if obs.enabled:
            obs.bus.emit(running.span(now, "complete"))

        for put in running.pending_puts:
            if put.rdd is not None and not put.rdd.persisted:
                # The RDD was unpersisted while this task was in flight
                # (a concurrent job's cache management); landing the block
                # anyway would leak storage no owner can ever drop.
                continue
            worker.block_manager.put(
                put.block_id, put.data, put.nbytes, put.spill, batch=put.batch
            )

        if spec.kind == TaskKind.SHUFFLE_MAP:
            self.stats.map_tasks += 1
            try:
                self.context.shuffle_manager.register_map_output(
                    spec.dep, spec.partition, worker, running.map_output, spec.dep.rdd.record_size
                )
            except DiskFullError as exc:
                raise EngineError(
                    f"worker {worker.worker_id} local disk full writing shuffle output"
                ) from exc
        elif spec.kind == TaskKind.RESULT:
            self.stats.result_tasks += 1
            if job is not None and not job.done:
                job.set_result(spec.partition, running.result)
        elif spec.kind == TaskKind.CHECKPOINT:
            self.stats.checkpoint_tasks += 1
            self.stats.checkpoint_time_total += running.duration
            self.ft_hooks.checkpoint_written(spec, now)

        self.ft_hooks.partitions_computed(running.computed, worker, now)
        inj = self.context.fault_injector
        if inj is not None:
            # Task-boundary injection point: the task's effects (blocks,
            # shuffle outputs, results, checkpoints) have just landed.
            inj.on_task_completed(spec, worker)
        self._schedule_round()
        # Retire after the trailing round, matching the seed: its final
        # post-completion round still saw the job as active.
        if job is not None and not job.done and job.remaining == 0:
            self._finish(job)
