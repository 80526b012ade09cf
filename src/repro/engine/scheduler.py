"""Event-driven task scheduler with lineage-based fault recovery.

This is the engine's DAG scheduler + task scheduler in one: it resolves which
materialisation points (cached blocks, checkpoints, shuffle outputs) exist,
derives the missing shuffle-map work transitively through the lineage graph,
dispatches tasks onto worker CPU slots, and replays lost work after
revocations.  Execution is *data-plane eager, side-effect deferred*: a task's
records are computed (for real) at dispatch, its duration is charged from the
cost model, and its effects — cached blocks, shuffle outputs, results,
checkpoint writes — land only when its completion event fires.  A worker
killed mid-flight therefore loses exactly the work Spark would lose.

Readiness is decided *incrementally*: resolve results are cached across
scheduling rounds in a pending-task dependency graph and invalidated only
when a block, shuffle output, or checkpoint actually appears or disappears
(change listeners on the block-location index, the shuffle manager, and the
checkpoint registry).  A round with no state change filters a cached ready
list instead of re-walking the lineage DAG.  The observable contract —
simulated runtimes, billing, task counts, results — is pinned by the frozen
goldens in ``tests/engine/test_engine_golden.py``.

The scheduler multiplexes a *set* of in-flight jobs: ``submit_job`` is
non-blocking and returns a :class:`JobHandle`; ``run_job`` is submit + wait
and keeps the seed's exact blocking semantics.  Each scheduling round
gathers every active job's ready frontier and allocates free slots across
jobs under the root scheduling policy (``fifo`` submission order, or
``fair`` weighted max-min across :class:`~repro.engine.pools.Pool`\\ s, with
interactive pools strictly ahead of batch pools).  A single job under
either policy dispatches in exactly the seed's order, so single-job runs
stay bit-identical.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.cluster.cluster import ClusterListener
from repro.engine.block_index import parse_block_id
from repro.engine.block_manager import BlockManager, block_id_for
from repro.engine.checkpoint import CheckpointWriteError
from repro.engine.columnar import ColumnarUnsupported, from_records
from repro.engine.dependencies import NarrowDependency, ShuffleDependency
from repro.engine.lineage import fusion_edge
from repro.engine.partitioner import HashPartitioner, stable_hash
from repro.engine.pools import DEFAULT_POOL, SCHEDULING_POLICIES, Pool
from repro.engine.profiling import SectionTimers, profiling_enabled_by_env
from repro.engine.shuffle import ShuffleFetchFailure
from repro.obs import SpanEvent
from repro.engine.task import (
    ComputedPartition,
    PendingPut,
    RunningTask,
    TaskKind,
    TaskSpec,
)
from repro.storage.local_disk import DiskFullError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.worker import Worker
    from repro.engine.context import FlintContext
    from repro.engine.rdd import RDD


class EngineError(RuntimeError):
    """Unrecoverable scheduler failure (deadlock, disk exhaustion, ...)."""


def _combine_sort_key(kv):
    k = kv[0]
    if type(k) is int:  # inline stable_hash's dominant branch
        return k & 0x7FFFFFFF
    return stable_hash(k)


#: Missing-key sentinel for the map-side combine loop.
_ABSENT = object()


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
    # Incremental-readiness observability: rounds run, how often a cached
    # resolve answered, how many cached decisions events invalidated, how
    # often the ready list had to be rebuilt, and the deepest ready queue.
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
    #: a kernel raised ``ColumnarUnsupported`` on the runtime schema).
    #: These describe *how* bodies ran, so they are excluded from
    #: :meth:`task_counts`.
    columnar_chains: int = 0
    columnar_stages: int = 0
    columnar_fallbacks: int = 0

    def task_counts(self) -> Dict[str, int]:
        """The counters that must agree across data planes."""
        return {
            "tasks_completed": self.tasks_completed,
            "tasks_lost": self.tasks_lost,
            "result_tasks": self.result_tasks,
            "map_tasks": self.map_tasks,
            "checkpoint_tasks": self.checkpoint_tasks,
        }


class TaskRuntime:
    """Per-task data-plane context: resolves inputs and accounts time.

    ``iterator`` is how an RDD's ``compute`` reaches its parents; it resolves
    (in order) the distributed cache, the checkpoint store, and finally
    recursive recomputation, charging the cost model for whichever path it
    takes.  Side effects (cache inserts, materialisation reports) are
    buffered for the scheduler to apply at completion time.
    """

    def __init__(
        self,
        context: "FlintContext",
        worker: "Worker",
        active_target_id: Optional[int],
    ):
        self.context = context
        self.worker = worker
        self.cost = context.cost_model
        self.active_target_id = active_target_id
        self.time_charged = 0.0
        self.pending_puts: List[PendingPut] = []
        self.computed: List[ComputedPartition] = []
        self._memo: Dict[Tuple[int, int], List[Any]] = {}
        self._columnar = context.columnar_enabled

    def charge(self, seconds: float) -> None:
        """Add simulated seconds to this task's duration."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.time_charged += seconds

    def iterator(self, rdd: "RDD", partition: int) -> List[Any]:
        """Records of ``(rdd, partition)`` via cache, checkpoint, or recompute."""
        key = (rdd.rdd_id, partition)
        memoised = self._memo.get(key)
        if memoised is not None:
            return memoised

        found = self.context.find_block(rdd, partition, prefer=self.worker)
        if found is not None:
            data, nbytes, holder, tier = found
            if holder.worker_id == self.worker.worker_id:
                if tier == "disk":
                    self.charge(self.cost.local_read_time(nbytes))
            else:
                self.charge(self.cost.network_time(nbytes))
            self._memo[key] = data
            return data

        registry = self.context.checkpoints
        if registry.has_partition(rdd, partition):
            nbytes = registry.partition_nbytes(rdd, partition)
            self.charge(self.context.env.dfs.read_duration(nbytes))
            data = registry.read_partition(rdd, partition)
            self._memo[key] = data
            return data

        if rdd.supports_fusion:
            data = self._compute_fused(rdd, partition)
        else:
            data = rdd.compute(partition, self)
        nbytes = rdd.partition_bytes(len(data))
        self.charge(self.cost.compute_time(len(data) * rdd.record_size, rdd.compute_multiplier))
        if rdd.persisted:
            self.pending_puts.append(
                PendingPut(
                    block_id_for(rdd.rdd_id, partition), data, nbytes, rdd.disk_persist,
                    rdd=rdd,
                )
            )
        if self._is_materialisation_point(rdd):
            self.computed.append(ComputedPartition(rdd, partition, data, nbytes))
        self._memo[key] = data
        return data

    def _compute_fused(self, rdd: "RDD", partition: int) -> List[Any]:
        """Materialise ``(rdd, partition)`` by streaming its narrow chain.

        Walks up the lineage collecting operator stages until a pipeline
        breaker — a cached/persisted/checkpointed partition, a per-task memo
        hit, a shuffle or multi-parent dependency, a source, or a node with
        more than one dependant (memoised once per task and served to each).
        The boundary input resolves through the normal :meth:`iterator`
        path, then records stream through each stage's ``compute_fused``
        without re-entering per-RDD resolution.

        Simulated time charges the input subtree first, then each interior
        stage deepest-first with its own record count, size, and multiplier
        (the caller charges the chain head, exactly as it charges any
        computed node) — the order the frozen goldens pin.
        """
        edge = fusion_edge(rdd, partition)
        if edge is None:
            raise IndexError(
                f"{rdd.name} partition {partition} has no single narrow parent to fuse through"
            )
        ctx = self.context
        checkpoints = ctx.checkpoints
        memo = self._memo
        stages = [(rdd, partition)]
        node, split = edge
        while (
            node.supports_fusion
            and node.dependents == 1
            and not node.persisted
            and (node.rdd_id, split) not in memo
            and not ctx.block_exists(node, split)
            and not checkpoints.has_partition(node, split)
        ):
            edge = fusion_edge(node, split)
            if edge is None:
                break
            stages.append((node, split))
            node, split = edge
        if self._columnar:
            data = self._compute_columnar(stages, node, split)
            if data is not None:
                return data
        stream: List[Any] = self.iterator(node, split)
        if len(stages) > 1:
            cost = self.cost
            charge = self.charge
            for i in range(len(stages) - 1, 0, -1):
                inner, inner_split = stages[i]
                stream = inner.compute_fused(stream, inner_split)
                charge(cost.compute_time(
                    len(stream) * inner.record_size, inner.compute_multiplier
                ))
            stats = ctx.scheduler.stats
            stats.fused_chains += 1
            stats.fused_stages += len(stages)
        return rdd.compute_fused(stream, partition)

    def _compute_columnar(
        self, stages: List[Tuple["RDD", int]], node: "RDD", split: int
    ) -> Optional[List[Any]]:
        """Lower a walked chain to batch kernels; None means "use rows".

        Lowering applies only when every stage carries a batch kernel and
        the boundary records columnarise; a kernel may still refuse the
        runtime schema (``ColumnarUnsupported``).  Either way the row plane
        takes over with nothing double-charged: the boundary resolve below
        went through the normal :meth:`iterator` (same charges, memo,
        pending puts as the row path's own resolve), so the fallback's
        re-resolve is a memo hit.

        Charges are bit-identical to the row plane by construction: batch
        lengths equal the row plane's per-stage record counts (the kernel
        contract), and they are charged in the same deepest-first order
        *after* all kernels ran — pure accumulation onto ``time_charged``,
        so applying them post hoc changes nothing.  The head stage is
        charged by the caller from the returned records, as always.
        """
        kernels = []
        for stage, stage_split in stages:
            kernel = stage.batch_kernel(stage_split)
            if kernel is None:
                return None
            kernels.append(kernel)
        stream = self.iterator(node, split)
        stats = self.context.scheduler.stats
        batch = from_records(stream)
        if batch is None:
            # Empty boundaries are trivially row-plane (nothing to
            # vectorise); only real refusals count as fallbacks.
            if stream:
                stats.columnar_fallbacks += 1
            return None
        counts: List[int] = []
        try:
            for i in range(len(stages) - 1, -1, -1):
                batch = kernels[i](batch)
                counts.append(batch.length)
        except ColumnarUnsupported:
            stats.columnar_fallbacks += 1
            return None
        cost = self.cost
        charge = self.charge
        last = len(stages) - 1
        for i in range(last, 0, -1):
            inner = stages[i][0]
            charge(cost.compute_time(
                counts[last - i] * inner.record_size, inner.compute_multiplier
            ))
        stats.columnar_chains += 1
        stats.columnar_stages += len(stages)
        if last >= 1:
            stats.fused_chains += 1
            stats.fused_stages += len(stages)
        return batch.to_records()

    def shuffle_fetch(self, dep: ShuffleDependency, reduce_id: int) -> List[List[Any]]:
        """Gather one reduce bucket from all map outputs, charging transfer time."""
        buckets, local_bytes, remote_bytes = self.context.shuffle_manager.fetch(
            dep, reduce_id, self.worker
        )
        self.charge(self.cost.network_time(remote_bytes) + self.cost.local_read_time(local_bytes))
        return buckets

    def _is_materialisation_point(self, rdd: "RDD") -> bool:
        """Storage-point RDDs make up the observable lineage frontier."""
        if rdd.persisted or rdd.rdd_id == self.active_target_id:
            return True
        return any(isinstance(dep, ShuffleDependency) for dep in rdd.dependencies)


class _JobState:
    """Progress of one action's execution."""

    _UNSET = object()

    def __init__(
        self,
        rdd: "RDD",
        func: Callable[[List[Any]], Any],
        job_id: int = 0,
        pool: Optional[Pool] = None,
        name: Optional[str] = None,
        submitted_at: float = 0.0,
        on_done: Optional[Callable[["_JobState"], None]] = None,
    ):
        self.rdd = rdd
        self.func = func
        self.job_id = job_id
        self.pool = pool
        self.name = name or f"job-{job_id}"
        self.submitted_at = submitted_at
        self.first_dispatch_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.on_done = on_done
        self.finished = False
        self.failed = False
        #: Tasks currently in flight for this job (results + maps dispatched
        #: from its frontier); the fair policy shares slots by these counts.
        self.running_tasks = 0
        self.results: List[Any] = [self._UNSET] * rdd.num_partitions
        self.remaining = rdd.num_partitions
        #: Memoised incremental ready frontier, keyed by spec key in walk
        #: order (None = must rebuild next round).  Specs leave the dict the
        #: moment they stop being dispatch candidates — dispatched, result
        #: delivered, or map output registered — so a round reads the
        #: frontier as a plain ``values()`` copy with no per-spec checks.
        self.ready_list: Optional[Dict[Tuple, TaskSpec]] = None
        #: RESULT specs in partition order, built once — the ready-list
        #: rebuild filters these instead of re-allocating specs each pass.
        self.root_specs: List[TaskSpec] = [
            TaskSpec(TaskKind.RESULT, rdd, p, func=func, job_id=job_id)
            for p in range(rdd.num_partitions)
        ]

    def set_result(self, partition: int, value: Any) -> None:
        if self.results[partition] is self._UNSET:
            self.remaining -= 1
        self.results[partition] = value

    def has_result(self, partition: int) -> bool:
        return self.results[partition] is not self._UNSET

    @property
    def is_done(self) -> bool:
        return self.remaining == 0


class JobHandle:
    """Handle to one submitted job: inspect it, wait on it, time it.

    ``wait()`` pumps the simulation loop exactly like the seed's blocking
    ``run_job`` did, so a lone job driven through a handle is bit-identical
    to the synchronous path.  Waits may nest: an interactive client's
    ``wait()`` can run from an arrival event fired inside a batch job's own
    wait loop, and the multiplexed rounds give both jobs slots.
    """

    def __init__(self, scheduler: "TaskScheduler", state: _JobState):
        self._scheduler = scheduler
        self._state = state

    @property
    def job_id(self) -> int:
        return self._state.job_id

    @property
    def name(self) -> str:
        return self._state.name

    @property
    def pool(self) -> Optional[str]:
        return self._state.pool.name if self._state.pool is not None else None

    @property
    def done(self) -> bool:
        return self._state.finished

    @property
    def failed(self) -> bool:
        return self._state.failed

    @property
    def submitted_at(self) -> float:
        return self._state.submitted_at

    @property
    def first_dispatch_at(self) -> Optional[float]:
        return self._state.first_dispatch_at

    @property
    def finished_at(self) -> Optional[float]:
        return self._state.finished_at

    @property
    def queue_delay(self) -> Optional[float]:
        """Simulated seconds between submission and first dispatch."""
        if self._state.first_dispatch_at is None:
            return None
        return self._state.first_dispatch_at - self._state.submitted_at

    @property
    def makespan(self) -> Optional[float]:
        """Simulated seconds between submission and completion."""
        if self._state.finished_at is None:
            return None
        return self._state.finished_at - self._state.submitted_at

    def wait(self) -> List[Any]:
        """Block (in simulated time) until the job completes; return results."""
        state = self._state
        scheduler = self._scheduler
        env = scheduler.env
        try:
            while not state.finished:
                if not env.events:
                    raise EngineError(
                        "scheduler deadlock: job incomplete but no pending events "
                        f"(live workers: {scheduler.cluster.size})"
                    )
                env.step()
                scheduler._schedule_round()
        except BaseException:
            # Mirror the seed's ``finally: self.job = None``: an exception
            # unwinding through the wait loop abandons the job rather than
            # leaving it wedged in the in-flight set.
            scheduler._abandon_job(state)
            raise
        if state.failed:
            raise EngineError(f"job {state.name!r} was abandoned")
        return list(state.results)

    def result(self) -> List[Any]:
        """Alias for :meth:`wait`."""
        return self.wait()


class TaskScheduler(ClusterListener):
    """Dispatches tasks onto cluster slots and recovers from revocations."""

    def __init__(
        self,
        context: "FlintContext",
        scheduling_policy: str = "fifo",
    ):
        if scheduling_policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown scheduling policy {scheduling_policy!r} "
                f"(expected one of {SCHEDULING_POLICIES})"
            )
        self.context = context
        self.env = context.env
        self.cluster = context.cluster
        #: Root policy for sharing slots between concurrent jobs.
        self.scheduling_policy = scheduling_policy
        self.busy: Dict[str, int] = {}
        #: Concurrent checkpoint writes per worker.  Checkpoint tasks are
        #: I/O-bound (one writer saturates a node's HDFS pipeline), so at
        #: most one runs per worker — they degrade co-located compute
        #: proportionally (§3.1.1) instead of starving the job of slots.
        self._ckpt_busy: Dict[str, int] = {}
        self.max_checkpoint_tasks_per_worker = 1
        self.running: Dict[Tuple, RunningTask] = {}
        self._checkpoint_queue: "OrderedDict[Tuple, TaskSpec]" = OrderedDict()
        #: In-flight jobs by job id, in submission order (ids ascend, dicts
        #: preserve insertion order — FIFO policy iterates this directly).
        self._jobs: "OrderedDict[int, _JobState]" = OrderedDict()
        self._next_job_id = 0
        #: Scheduling pools by name; jobs land in ``default`` unless routed.
        self.pools: Dict[str, Pool] = {DEFAULT_POOL: Pool(DEFAULT_POOL)}
        self.stats = SchedulerStats()
        #: Completed-task count per job id, maintained unconditionally (it is
        #: two dict ops per completion) so the tracing invariant can
        #: reconcile emitted task spans against the scheduler's own books.
        self.tasks_completed_by_job: Dict[int, int] = {}
        self.timers = SectionTimers(enabled=profiling_enabled_by_env())
        self._seen_partitions: Dict[int, Set[int]] = {}
        self._generated: Set[int] = set()
        self._materialised: Set[int] = set()
        self._dispatch_rotation = 0
        # Re-entrancy guard: a fault injector may revoke workers
        # synchronously from inside a dispatch hook, and the revocation
        # listener calls back into _schedule_round while the outer round is
        # still iterating its spec list.  The inner call only sets a flag;
        # the outer round loops until no round is pending.
        self._in_round = False
        self._round_pending = False
        # Incremental readiness state: resolve results cached across rounds,
        # reverse edges for targeted invalidation.  The memoised ordered
        # ready lists live per job (``_JobState.ready_list``; None = must
        # rebuild next round).
        self._resolve_cache: Dict[Tuple[int, int], Tuple[bool, List[TaskSpec]]] = {}
        self._dependents: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
        self._shuffle_dependents: Dict[int, Set[Tuple[int, int]]] = {}
        # Map specs are identified entirely by (shuffle, partition); reuse
        # one object per identity so rebuilds don't churn allocations.
        self._map_specs: Dict[Tuple[int, int], TaskSpec] = {}
        # shuffle_id -> (output_epoch, interned specs for its missing maps);
        # see _missing_map_specs.
        self._missing_spec_lists: Dict[int, Tuple[int, List[TaskSpec]]] = {}
        # rdd_id -> RDD for every node the resolver has seen, so
        # invalidation can re-resolve a popped node in place.
        self._rdd_index: Dict[int, "RDD"] = {}
        context.block_index.add_listener(self._on_block_event)
        context.shuffle_manager.add_listener(self._on_shuffle_event)
        context.checkpoints.add_listener(self._on_checkpoint_event)
        self.cluster.add_listener(self)
        for worker in self.cluster.live_workers():
            self._register_worker(worker)

    # ------------------------------------------------------------------
    # Cluster listener hooks
    # ------------------------------------------------------------------
    def on_worker_joined(self, worker: "Worker", t: float) -> None:
        self._register_worker(worker)
        self._schedule_round()

    def on_worker_revoked(self, worker: "Worker", t: float) -> None:
        self.context.shuffle_manager.remove_outputs_on(worker.worker_id)
        doomed = [rt for rt in self.running.values() if rt.worker_id == worker.worker_id]
        obs = self.context.obs
        for rt in doomed:
            self.env.events.cancel(rt.completion_event)
            del self.running[rt.spec.key]
            self._note_task_left(rt)
            self.stats.tasks_lost += 1
            if obs.enabled:
                obs.metrics.inc("scheduler.tasks_lost")
                obs.bus.emit(self._task_span(rt, t, "lost"))
        self.busy.pop(worker.worker_id, None)
        self._ckpt_busy.pop(worker.worker_id, None)
        # Lost in-flight tasks may not touch any tracked state (a result
        # task holding no blocks), so the cached ready lists cannot rely on
        # change events alone after a revocation.
        self._drop_ready_lists()
        self._schedule_round()

    def on_worker_terminated(self, worker: "Worker", t: float) -> None:
        # Deliberate shutdown loses local state exactly like a revocation;
        # dropping the outputs keeps the shuffle missing-sets truthful
        # (queries against a dead worker already answered "missing").
        self.context.shuffle_manager.remove_outputs_on(worker.worker_id)
        self._drop_ready_lists()

    def _register_worker(self, worker: "Worker") -> None:
        if worker.block_manager is None:
            worker.block_manager = BlockManager(
                worker, index=self.context.block_index, obs=self.context.obs
            )
        else:
            if worker.block_manager.index is None:
                worker.block_manager.index = self.context.block_index
            if worker.block_manager.obs is None:
                worker.block_manager.obs = self.context.obs
        if worker.obs is None:
            worker.obs = self.context.obs
        self.context.shuffle_manager.register_worker(worker)
        self.busy.setdefault(worker.worker_id, 0)

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
    @property
    def active_jobs(self) -> List[JobHandle]:
        """Handles for every job currently in flight, in submission order."""
        return [JobHandle(self, job) for job in self._jobs.values()]

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
            pool = getattr(self.context, "current_job_pool", DEFAULT_POOL)
        pool_obj = self.get_pool(pool)
        job_id = self._next_job_id
        self._next_job_id += 1
        job = _JobState(
            rdd,
            func,
            job_id=job_id,
            pool=pool_obj,
            name=name,
            submitted_at=self.env.now,
            on_done=(lambda state: on_done(JobHandle(self, state))) if on_done else None,
        )
        self.stats.jobs_submitted += 1
        pool_obj.jobs_submitted += 1
        self._jobs[job_id] = job
        if len(self._jobs) > self.stats.concurrent_jobs_peak:
            self.stats.concurrent_jobs_peak = len(self._jobs)
        if job.is_done:
            # Zero-partition action: nothing to dispatch.
            self._retire(job)
        else:
            self._schedule_round()
        return JobHandle(self, job)

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

    def _retire(self, job: _JobState) -> None:
        """Remove a completed job from the in-flight set and notify."""
        job.finished = True
        job.finished_at = self.env.now
        self._jobs.pop(job.job_id, None)
        job.ready_list = None
        if job.pool is not None:
            job.pool.jobs_finished += 1
        self.stats.jobs_completed += 1
        self._emit_job_span(job, "complete")
        if job.on_done is not None:
            callback, job.on_done = job.on_done, None
            callback(job)

    def _abandon_job(self, job: _JobState) -> None:
        """Drop an incomplete job whose waiter is unwinding with an error."""
        if job.finished:
            return
        job.finished = True
        job.failed = True
        job.finished_at = self.env.now
        self._jobs.pop(job.job_id, None)
        job.ready_list = None
        if job.pool is not None:
            job.pool.jobs_finished += 1
        self.stats.jobs_failed += 1
        self._emit_job_span(job, "failed")

    def _emit_job_span(self, job: _JobState, status: str) -> None:
        obs = self.context.obs
        if not obs.enabled:
            return
        obs.bus.emit(SpanEvent(
            kind="job",
            name=job.name,
            start=job.submitted_at,
            end=self.env.now,
            job_id=job.job_id,
            pool=job.pool.name if job.pool is not None else None,
            status=status,
            attrs={"tasks": self.tasks_completed_by_job.get(job.job_id, 0)},
        ))

    def _task_span(self, running: RunningTask, end: float, status: str) -> SpanEvent:
        spec = running.spec
        rdd = spec.dep.rdd if spec.kind == TaskKind.SHUFFLE_MAP else spec.rdd
        job = running.job
        return SpanEvent(
            kind="task",
            name=f"{spec.kind.value} rdd{rdd.rdd_id}[{spec.partition}]",
            start=running.started_at,
            end=end,
            worker=running.worker_id,
            job_id=job.job_id if job is not None else None,
            pool=job.pool.name if job is not None and job.pool is not None else None,
            status=status,
            attrs={
                "task_kind": spec.kind.value,
                "rdd": rdd.rdd_id,
                "partition": spec.partition,
            },
        )

    def _drop_ready_lists(self) -> None:
        """Invalidate every in-flight job's memoised ready list."""
        for job in self._jobs.values():
            job.ready_list = None

    def _note_task_left(self, running: RunningTask) -> None:
        """Per-job/per-pool accounting when a task leaves ``self.running``."""
        job = running.job
        if job is None:
            return
        job.running_tasks = max(0, job.running_tasks - 1)
        if job.pool is not None:
            job.pool.running_tasks = max(0, job.pool.running_tasks - 1)

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
    def pump(self) -> None:
        """Public pump: run scheduling rounds until the frontier is drained.

        The supported surface for drivers that interleave event stepping
        with scheduling (the job server's blocking ``run_query``, client
        drive loops, system baselines, tests).  Safe to call at any time:
        re-entrant calls coalesce into the innermost active round exactly
        like internal ``_schedule_round`` callers, and a pump with nothing
        ready is a cheap no-op round.
        """
        self._schedule_round()

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
        self.stats.scheduling_rounds += 1
        with self.timers.section("schedule_round"):
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
                    # Only the per-worker checkpoint-stream cap is
                    # exhausted; compute slots may still be free for
                    # job tasks.
                    continue
                self._dispatch(spec, worker)
            for job, spec in self._iter_job_specs(job_specs):
                if spec.key in self.running:
                    continue
                worker = self._pick_worker(spec)
                if worker is None:
                    break
                self._dispatch(spec, worker, job)

    def _ready_specs(self) -> Tuple[List[TaskSpec], List[Tuple[_JobState, List[TaskSpec]]]]:
        """Pending checkpoint writes plus each job's ready frontier."""
        ckpt_specs: List[TaskSpec] = []
        for key, spec in list(self._checkpoint_queue.items()):
            if key not in self.running:
                ckpt_specs.append(spec)
        job_specs: List[Tuple[_JobState, List[TaskSpec]]] = []
        for job in list(self._jobs.values()):
            specs = self._specs_for_job(job)
            if specs:
                job_specs.append((job, specs))
        return ckpt_specs, job_specs

    def _specs_for_job(self, job: _JobState) -> List[TaskSpec]:
        if job.ready_list is None:
            with self.timers.section("ready_rebuild"):
                job.ready_list = self._build_ready_list(job)
            self.stats.readiness_rebuilds += 1
        # Between rebuilds only three things change a spec's candidacy:
        # it gets dispatched (now in ``running``; a fresh walk would skip
        # it without expanding anything, since ready specs contribute no
        # children), its result arrives (the walk would not push its root),
        # or its map output registers (the walk never visits available
        # maps).  Each of those transitions pops the spec from the frontier
        # dict at the event itself — ``_dispatch``, result delivery in
        # ``_on_task_done``, and ``_on_shuffle_event`` — so the surviving
        # dict *is* the walk's answer and a round just copies it.
        #
        # The pops are sound because every transition is monotone while the
        # list is valid: results never unset, availability only flips off
        # via a loss event, and a dispatched task either completes or dies
        # on a path that drops every ready list (revocation, termination,
        # straggler, abandoned dispatch, shuffle loss).  A sibling job's
        # identical map spec is popped by the same dispatch — if that task
        # is lost, the list drop restores both jobs' copies.
        return list(job.ready_list.values())

    def _iter_job_specs(
        self, job_specs: List[Tuple[_JobState, List[TaskSpec]]]
    ) -> Iterator[Tuple[_JobState, TaskSpec]]:
        """Yield ``(job, spec)`` in slot-allocation order under the root policy.

        ``fifo`` (and any single-job round) preserves the seed's exact
        dispatch order: jobs in submission order, each frontier in walk
        order.  ``fair`` interleaves dispatches by weighted max-min share —
        every yield goes to the pool with the smallest
        ``running_tasks / weight`` (interactive pools strictly first, pool
        name as the deterministic tiebreak), then to a job inside that pool
        by its intra-pool policy.  Shares count this round's tentative
        allocations, so a single round spreads free slots rather than
        handing them all to the first-sorted pool.
        """
        if self.scheduling_policy == "fifo" or len(job_specs) <= 1:
            for job, specs in job_specs:
                for spec in specs:
                    yield job, spec
            return
        pool_alloc: Dict[str, int] = {}
        job_alloc: Dict[int, int] = {}
        entries: List[List[Any]] = []
        for job, specs in job_specs:
            pool = job.pool if job.pool is not None else self.get_pool(DEFAULT_POOL)
            pool_alloc.setdefault(pool.name, pool.running_tasks)
            job_alloc[job.job_id] = job.running_tasks
            entries.append([job, pool, specs, 0])

        def share_key(entry: List[Any]) -> Tuple:
            job, pool = entry[0], entry[1]
            if pool.policy == "fair":
                intra = (job_alloc[job.job_id], job.job_id)
            else:
                intra = (job.job_id, 0)
            return (
                pool.priority_rank,
                pool_alloc[pool.name] / pool.weight,
                pool.name,
                intra,
            )

        while entries:
            entry = min(entries, key=share_key)
            job, pool, specs, idx = entry
            spec = specs[idx]
            entry[3] += 1
            if entry[3] >= len(specs):
                entries.remove(entry)
            pool_alloc[pool.name] += 1
            job_alloc[job.job_id] += 1
            yield job, spec

    def _build_ready_list(self, job: _JobState) -> Dict[Tuple, TaskSpec]:
        """Depth-first frontier walk over the cached resolves.

        Enumeration order is part of the frozen contract: RESULT roots
        pushed in partition order (popped descending), running specs
        pruned without expansion, ``visited`` dedupe by task key.  Returns
        an insertion-ordered dict so later candidacy transitions pop specs
        by key in O(1) (see ``_specs_for_job``).
        """
        ready: Dict[Tuple, TaskSpec] = {}
        visited: Set[Tuple] = set()
        running = self.running
        sm = self.context.shuffle_manager
        stack: List[TaskSpec] = [
            s for s in job.root_specs if not job.has_result(s.partition)
        ]
        while stack:
            spec = stack.pop()
            key = spec.key
            if key in visited:
                continue
            visited.add(key)
            if key in running:
                continue
            if spec.kind == TaskKind.SHUFFLE_MAP:
                # Cached needed lists may be stale supersets (benign shrink
                # events leave them in place); an already-available map is
                # one a fresh resolve would never have pushed — skipping it
                # here, without expanding it, gives the exact fresh walk.
                if sm.map_output_available(spec.dep.shuffle_id, spec.partition):
                    continue
                target = spec.dep.rdd
            else:
                target = spec.rdd
            is_ready, needed = self._resolve(target, spec.partition)
            if is_ready:
                ready[key] = spec
            else:
                stack.extend(needed)
        return ready

    def _pop_from_ready_lists(self, key: Tuple) -> None:
        """Retire a spec from every job's memoised frontier.

        Map-task keys are job-agnostic, so one job's dispatch or output
        registration satisfies every sibling's copy of the spec; result
        keys embed the job id and only ever hit their owner's dict.
        """
        for job in self._jobs.values():
            ready = job.ready_list
            if ready is not None:
                ready.pop(key, None)

    def _map_spec(self, dep: ShuffleDependency, map_id: int) -> TaskSpec:
        sk = (dep.shuffle_id, map_id)
        spec = self._map_specs.get(sk)
        if spec is None:
            spec = TaskSpec(TaskKind.SHUFFLE_MAP, dep.rdd, map_id, dep=dep)
            self._map_specs[sk] = spec
        return spec

    def _missing_map_specs(self, dep: ShuffleDependency) -> List[TaskSpec]:
        """Interned specs for a shuffle's currently-missing map outputs.

        Every reducer of an incomplete shuffle resolves to the same needed
        list, so it is built once per shuffle output epoch instead of once
        per resolve (a wide stage used to pay maps × reducers ``_map_spec``
        calls during a rebuild).  Valid exactly while the epoch matches:
        registrations and losses both bump it.
        """
        sm = self.context.shuffle_manager
        sid = dep.shuffle_id
        epoch = sm.output_epoch(sid)
        cached = self._missing_spec_lists.get(sid)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        specs = [self._map_spec(dep, m) for m in sm.missing_maps(dep)]
        self._missing_spec_lists[sid] = (epoch, specs)
        return specs

    def _resolve(self, rdd: "RDD", partition: int) -> Tuple[bool, List[TaskSpec]]:
        """Can ``(rdd, partition)`` be produced right now?

        Returns ``(ready, needed_map_tasks)``: not-ready partitions name the
        shuffle-map tasks (transitively) blocking them.  Answers live across
        scheduling rounds in ``_resolve_cache``, leaves are O(1) lookups
        (block-location index, shuffle missing-sets), and every consult is
        recorded as a reverse edge so change events invalidate exactly the
        decisions they affect.
        """
        key = (rdd.rdd_id, partition)
        cached = self._resolve_cache.get(key)
        if cached is not None:
            self.stats.resolve_cache_hits += 1
            return cached
        self.stats.resolve_cache_misses += 1
        self._rdd_index[rdd.rdd_id] = rdd
        if self.context.block_exists(rdd, partition) or self.context.checkpoints.has_partition(
            rdd, partition
        ):
            result = (True, [])
            self._resolve_cache[key] = result
            return result
        ready = True
        needed: List[TaskSpec] = []
        for dep in rdd.dependencies:
            if isinstance(dep, ShuffleDependency):
                self._shuffle_dependents.setdefault(dep.shuffle_id, set()).add(key)
                if self.context.shuffle_manager.has_missing(dep.shuffle_id):
                    ready = False
                    needed.extend(self._missing_map_specs(dep))
            elif isinstance(dep, NarrowDependency):
                for parent_partition in dep.parents_of(partition):
                    self._dependents.setdefault((dep.rdd.rdd_id, parent_partition), set()).add(key)
                    sub_ready, sub_needed = self._resolve(dep.rdd, parent_partition)
                    ready = ready and sub_ready
                    needed.extend(sub_needed)
            else:  # pragma: no cover - no other dependency kinds exist
                raise EngineError(f"unknown dependency type {type(dep).__name__}")
        result = (ready, needed)
        self._resolve_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Incremental readiness: change events and targeted invalidation
    # ------------------------------------------------------------------
    def _on_block_event(self, block_id: str, added: bool) -> None:
        parsed = parse_block_id(block_id)
        if parsed is not None:
            self._invalidate_node(parsed)

    def _on_shuffle_event(self, shuffle_id: int, map_id: int, available: bool) -> None:
        if available:
            # The map spec is no longer a dispatch candidate for anyone —
            # exactly the condition the frontier filter used to re-check
            # every round.  Availability only flips back off via the loss
            # branch below, which drops every list outright.
            self._pop_from_ready_lists(
                (TaskKind.SHUFFLE_MAP.value, shuffle_id, map_id)
            )
            if self.context.shuffle_manager.has_missing(shuffle_id):
                # A registration that leaves the shuffle incomplete cannot
                # flip any dependant ready; it only shrinks their needed
                # lists, and both the rebuild walk and the dispatch filter
                # already skip available map specs.  The cached lists go
                # stale-but-superset, which ``_needed_unchanged`` treats as
                # benign.
                return
            for key in list(self._shuffle_dependents.get(shuffle_id, ())):
                self._invalidate_node(key)
            return
        # Loss events: the ready lists are not a pure function of the cached
        # answers (the walk also consulted map availability), so an
        # unchanged-answer repair cannot prove them valid.  Losses are rare
        # (evictions, revocations) — drop the lists unconditionally.
        for key in list(self._shuffle_dependents.get(shuffle_id, ())):
            self._invalidate_node(key)
        self._drop_ready_lists()

    def _on_checkpoint_event(self, rdd_id: int, partition: Optional[int], available: bool) -> None:
        if partition is not None:
            self._invalidate_node((rdd_id, partition))
            return
        # Whole-RDD deletion (checkpoint GC): every cached decision about
        # this RDD's partitions consulted the now-gone checkpoints.
        for key in [k for k in self._resolve_cache if k[0] == rdd_id]:
            self._invalidate_node(key)

    def _invalidate_node(self, key: Tuple[int, int]) -> None:
        """Drop one cached readiness decision and everything built on it.

        The walk stops at uncached nodes: a cached entry always implies the
        entries it consulted are cached (a resolve caches its inputs before
        itself, and invalidation pops a node's cached dependants in the same
        walk), so an uncached node has no cached dependants left to find.
        Dependency edges are never removed — a stale edge costs at most one
        spurious re-resolve, while a missing one would corrupt readiness.
        """
        if key not in self._resolve_cache:
            return
        stack = [key]
        while stack:
            k = stack.pop()
            old = self._resolve_cache.pop(k, None)
            if old is None:
                continue
            self.stats.readiness_invalidations += 1
            # Repair-and-compare: re-resolve in place (listeners fire after
            # the state change, so this sees fresh state; the node's own
            # dependencies are untouched by this dependants-upward walk).
            # If the answer is unchanged — same ready flag, same needed
            # specs pairwise-identical (valid: needed lists hold only
            # _map_specs-interned objects) — nothing built on it can have
            # changed either, so the cascade and the ready list both stand.
            rdd = self._rdd_index.get(k[0])
            if rdd is not None:
                new = self._resolve(rdd, k[1])
                if new[0] == old[0] and self._needed_unchanged(new[1], old[1]):
                    continue
            self._drop_ready_lists()
            stack.extend(self._dependents.get(k, ()))

    def _needed_unchanged(self, new: List[TaskSpec], old: List[TaskSpec]) -> bool:
        """Is ``new`` exactly ``old``, or ``old`` minus now-available maps?

        Pairwise identity is valid because needed lists hold only
        ``_map_specs``-interned objects.  The gap-tolerant direction is sound
        because the rebuild walk skips available map specs without expanding
        them — pushing the superset list produces the identical walk.  Any
        other difference (growth, reorder, unavailable gap) returns False
        and the caller nukes the ready list.
        """
        if len(new) == len(old):
            return all(x is y for x, y in zip(new, old))
        sm = self.context.shuffle_manager
        i = 0
        n = len(new)
        for s in old:
            if i < n and s is new[i]:
                i += 1
            elif not sm.map_output_available(s.dep.shuffle_id, s.partition):
                return False
        return i == n

    def _pick_worker(self, spec: TaskSpec) -> Optional["Worker"]:
        live = self.cluster.live_workers()
        candidates = [w for w in live if self.busy.get(w.worker_id, 0) < w.slots]
        if spec.kind == TaskKind.CHECKPOINT:
            candidates = [
                w
                for w in candidates
                if self._ckpt_busy.get(w.worker_id, 0) < self.max_checkpoint_tasks_per_worker
            ]
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
        return min(rotated, key=lambda w: self.busy.get(w.worker_id, 0) / w.slots)

    # ------------------------------------------------------------------
    # Dispatch and completion
    # ------------------------------------------------------------------
    def _dispatch(self, spec: TaskSpec, worker: "Worker", job: Optional[_JobState] = None) -> None:
        self.busy[worker.worker_id] = self.busy.get(worker.worker_id, 0) + 1
        if spec.kind == TaskKind.CHECKPOINT:
            self._ckpt_busy[worker.worker_id] = self._ckpt_busy.get(worker.worker_id, 0) + 1
            self._checkpoint_queue.pop(spec.key, None)
        target_id = job.rdd.rdd_id if job is not None else None
        runtime = TaskRuntime(self.context, worker, target_id)
        result = None
        buckets = None
        try:
            if spec.kind == TaskKind.RESULT:
                data = runtime.iterator(spec.rdd, spec.partition)
                result = spec.func(data)
                if isinstance(result, list):
                    runtime.charge(
                        self.context.cost_model.driver_transfer_time(
                            len(result) * spec.rdd.record_size
                        )
                    )
            elif spec.kind == TaskKind.SHUFFLE_MAP:
                buckets = self._execute_map(spec, runtime)
            elif spec.kind == TaskKind.CHECKPOINT:
                runtime.charge(self.env.dfs.write_duration(spec.nbytes))
        except ShuffleFetchFailure:
            # A map output this task depends on vanished between the
            # readiness decision and the fetch (an injected revocation of
            # the serving worker, exactly Spark's FetchFailed path).  Abandon
            # the dispatch; the lost maps are already back in the missing
            # sets, so the next round reruns them before retrying this task.
            self._abandon_dispatch(spec, worker)
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
            map_buckets=buckets,
            computed=runtime.computed,
            job=job,
        )
        running.completion_event = self.env.schedule_in(
            duration, "task_done", running, callback=self._on_task_done
        )
        self.running[spec.key] = running
        self._pop_from_ready_lists(spec.key)
        obs = self.context.obs
        if obs.enabled:
            obs.metrics.inc("scheduler.tasks_dispatched")
        if job is not None:
            if job.first_dispatch_at is None:
                job.first_dispatch_at = self.env.now
                if obs.enabled and job.pool is not None:
                    obs.metrics.observe(
                        f"pool.queue_delay.{job.pool.name}",
                        self.env.now - job.submitted_at,
                    )
            job.running_tasks += 1
            if job.pool is not None:
                job.pool.running_tasks += 1
        if inj is not None:
            # Mid-stage / mid-checkpoint-write injection point: the task is
            # in flight, so a revocation fired here loses exactly this work.
            inj.on_task_dispatched(spec, worker)

    def _abandon_dispatch(self, spec: TaskSpec, worker: "Worker") -> None:
        """Roll back a dispatch whose data plane failed before completion."""
        self.stats.fetch_failures += 1
        if worker.worker_id in self.busy:
            self.busy[worker.worker_id] = max(0, self.busy[worker.worker_id] - 1)
        if spec.kind == TaskKind.CHECKPOINT and worker.worker_id in self._ckpt_busy:
            self._ckpt_busy[worker.worker_id] = max(0, self._ckpt_busy[worker.worker_id] - 1)
        self._drop_ready_lists()
        self._schedule_round()

    def _execute_map(self, spec: TaskSpec, runtime: TaskRuntime) -> List[List[Any]]:
        dep = spec.dep
        records = runtime.iterator(dep.rdd, spec.partition)
        n_buckets = dep.num_reduce_partitions
        partitioner = dep.partitioner
        # ``num_reduce_partitions`` is the partitioner's own partition
        # count, so a plain HashPartitioner's bucket choice can be inlined
        # into the per-record loops (no function call per record).
        hashed = type(partitioner) is HashPartitioner
        pf = partitioner.partition_for
        if dep.map_side_combine:
            create, merge_value, _merge_combiners = dep.aggregator
            # Combine into one table, then distribute: the partitioner runs
            # once per distinct key instead of once per record, and tiny
            # buckets skip the sort.  Within a bucket the insertion order
            # (first key occurrence) and merged values are exactly the
            # per-bucket-table walk's, and the stable sort preserves it for
            # hash ties — the buckets are bit-identical to the seed's.
            combined: Dict[Any, Any] = {}
            get = combined.get
            for key, value in records:
                prev = get(key, _ABSENT)
                combined[key] = (
                    create(value) if prev is _ABSENT else merge_value(prev, value)
                )
            tables: List[List[Any]] = [[] for _ in range(n_buckets)]
            if hashed:
                for item in combined.items():
                    key = item[0]
                    if type(key) is int:
                        tables[(key & 0x7FFFFFFF) % n_buckets].append(item)
                    else:
                        tables[stable_hash(key) % n_buckets].append(item)
            else:
                for item in combined.items():
                    tables[pf(item[0])].append(item)
            buckets = [
                sorted(t, key=_combine_sort_key) if len(t) > 1 else t
                for t in tables
            ]
            out_records = len(combined)
        else:
            buckets = [[] for _ in range(n_buckets)]
            if hashed:
                for record in records:
                    key = record[0]
                    if type(key) is int:
                        buckets[(key & 0x7FFFFFFF) % n_buckets].append(record)
                    else:
                        buckets[stable_hash(key) % n_buckets].append(record)
            else:
                for record in records:
                    buckets[pf(record[0])].append(record)
            out_records = len(records)
        runtime.charge(self.context.cost_model.shuffle_write_time(out_records * dep.rdd.record_size))
        return buckets

    def _on_task_done(self, event) -> None:
        running: RunningTask = event.payload
        spec = running.spec
        self.running.pop(spec.key, None)
        self._note_task_left(running)
        worker = self.cluster.workers.get(running.worker_id)
        if worker is not None:
            self.busy[running.worker_id] = max(0, self.busy.get(running.worker_id, 1) - 1)
            if spec.kind == TaskKind.CHECKPOINT:
                self._ckpt_busy[running.worker_id] = max(
                    0, self._ckpt_busy.get(running.worker_id, 1) - 1
                )
        if worker is None or not worker.alive:
            # The completion event should have been cancelled at revocation;
            # treat a straggler as lost work.  Its spec left ``running``
            # with no change event fired, so a ready list memoised while it
            # ran is no longer faithful.
            self.stats.tasks_lost += 1
            obs = self.context.obs
            if obs.enabled:
                obs.metrics.inc("scheduler.tasks_lost")
                obs.bus.emit(self._task_span(running, self.env.now, "lost"))
            self._drop_ready_lists()
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
            if job.pool is not None:
                job.pool.tasks_completed += 1
        obs = self.context.obs
        if obs.enabled:
            obs.metrics.inc("scheduler.tasks_completed")
            obs.bus.emit(self._task_span(running, now, "complete"))

        for put in running.pending_puts:
            if put.rdd is not None and not put.rdd.persisted:
                # The RDD was unpersisted while this task was in flight
                # (a concurrent job's cache management); landing the block
                # anyway would leak storage no owner can ever drop.
                continue
            worker.block_manager.put(put.block_id, put.data, put.nbytes, put.spill)

        if spec.kind == TaskKind.SHUFFLE_MAP:
            self.stats.map_tasks += 1
            try:
                self.context.shuffle_manager.register_map_output(
                    spec.dep, spec.partition, worker, running.map_buckets, spec.dep.rdd.record_size
                )
            except DiskFullError as exc:
                raise EngineError(
                    f"worker {worker.worker_id} local disk full writing shuffle output"
                ) from exc
        elif spec.kind == TaskKind.RESULT:
            self.stats.result_tasks += 1
            job = running.job
            if job is not None and not job.finished:
                job.set_result(spec.partition, running.result)
                ready = job.ready_list
                if ready is not None:
                    ready.pop(spec.key, None)
        elif spec.kind == TaskKind.CHECKPOINT:
            self.stats.checkpoint_tasks += 1
            self.stats.checkpoint_time_total += running.duration
            registry = self.context.checkpoints
            try:
                registry.record_write(spec.rdd, spec.partition, spec.data, spec.nbytes, now)
            except CheckpointWriteError:
                # Durable write failed (injected DFS fault).  The partition
                # is still only volatile; re-queue the write so the frontier
                # eventually advances once the fault clears.
                self.stats.checkpoint_write_failures += 1
                self.enqueue_checkpoint(spec)
            else:
                ft = self.context.ft_manager
                if registry.is_fully_checkpointed(spec.rdd):
                    registry.gc_after_checkpoint(spec.rdd)
                    if ft is not None:
                        ft.on_rdd_checkpointed(spec.rdd, now)

        self._process_computed(running, worker, now)
        inj = self.context.fault_injector
        if inj is not None:
            # Task-boundary injection point: the task's effects (blocks,
            # shuffle outputs, results, checkpoints) have just landed.
            inj.on_task_completed(spec, worker)
        self._schedule_round()
        # Retire after the trailing round, matching the seed: its final
        # post-completion round still saw the job as active.
        job = running.job
        if job is not None and not job.finished and job.is_done:
            self._retire(job)

    def _process_computed(self, running: RunningTask, worker: "Worker", now: float) -> None:
        """Track materialisations and capture checkpoint payloads."""
        ft = self.context.ft_manager
        obs = self.context.obs
        newly_generated: List["RDD"] = []
        newly_materialised: List["RDD"] = []
        for cp in running.computed:
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
                obs.metrics.inc("scheduler.recomputed_partitions")
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
        for cp in running.computed:
            if cp.rdd.manual_checkpoint and not registry.is_marked(cp.rdd):
                registry.mark(cp.rdd)
            if registry.is_marked(cp.rdd) and not registry.has_partition(cp.rdd, cp.partition):
                self.enqueue_checkpoint(
                    TaskSpec(
                        TaskKind.CHECKPOINT,
                        cp.rdd,
                        cp.partition,
                        data=cp.data,
                        nbytes=cp.nbytes,
                        preferred_worker_id=worker.worker_id,
                    )
                )
