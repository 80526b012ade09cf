"""FlintContext: the engine's user-facing entry point (Spark's SparkContext).

A context binds an :class:`~repro.cluster.environment.Environment` and a
:class:`~repro.cluster.cluster.Cluster` to one application: it creates source
RDDs, runs actions through the scheduler, and hosts the application-wide
services (shuffle manager, checkpoint registry, and — when Flint manages the
application — the fault-tolerance manager).
"""

from __future__ import annotations

import contextlib
import itertools
import os
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.environment import Environment
from repro.engine.block_index import BlockLocationIndex
from repro.engine.block_manager import BlockManager, block_id_for
from repro.engine.checkpoint import CheckpointRegistry
from repro.engine.costs import CostModel
from repro.engine.shuffle import ShuffleManager
from repro.obs import Observability
from repro.obs.metrics import span_metrics, summary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.worker import Worker
    from repro.engine.rdd import RDD


class FlintContext:
    """Application context for building and executing RDD programs."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        cost_model: Optional[CostModel] = None,
        obs: Optional[Observability] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.cost_model = cost_model or CostModel()
        #: Bumped by :meth:`RDD.set_record_size`; versions every RDD's
        #: memoised inherited record size (see ``RDD.record_size``).
        self.sizing_epoch = 0
        self.record_size_memo_hits = 0
        self.record_size_memo_misses = 0
        #: Engine-wide tracing (``FLINT_TRACE``, default off).
        #: Attribute-wired into every subsystem below, the same first-class
        #: hook-point pattern as the fault injector.
        self.obs = obs if obs is not None else Observability()
        self.obs.bind_clock(lambda: env.now)
        #: Driver-side block-location index (Spark's BlockManagerMaster):
        #: block managers mirror every presence change here so cluster-wide
        #: block lookups are dict reads, never worker scans.
        self.block_index = BlockLocationIndex()
        self.shuffle_manager = ShuffleManager(obs=self.obs)
        self.checkpoints = CheckpointRegistry(env.dfs, obs=self.obs)
        cluster.obs = self.obs
        env.provider.obs = self.obs
        for market in env.provider.markets.values():
            market.obs = self.obs
        #: Set by Flint's fault-tolerance manager when it attaches (optional).
        self.ft_manager = None
        #: Installed by :class:`repro.faults.injector.FaultInjector`; None
        #: keeps every injection point a no-op branch on the hot path.
        self.fault_injector = None
        self._rdd_counter = itertools.count()
        self._rdds: List["RDD"] = []
        self._rdds_by_id: Dict[int, "RDD"] = {}
        #: Pool new jobs land in when none is named (see :meth:`job_pool`).
        self.current_job_pool = "default"
        # Import here to break the rdd <-> scheduler <-> context cycle.
        from repro.engine.scheduler import TaskScheduler

        self.scheduler = TaskScheduler(self)
        fault_spec = os.environ.get("FLINT_FAULT_PLAN")
        if fault_spec:
            # Deferred import: repro.faults builds on the engine modules.
            from repro.faults import install_plan

            install_plan(self, fault_spec)

    # ------------------------------------------------------------------
    # RDD creation
    # ------------------------------------------------------------------
    def parallelize(
        self, data: List[Any], num_partitions: Optional[int] = None, record_size: Optional[int] = None
    ) -> "RDD":
        """Distribute driver-side data into an RDD."""
        from repro.engine.transformations import ParallelCollectionRDD

        if num_partitions is not None and num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        n = num_partitions if num_partitions is not None else max(1, self.default_parallelism)
        return ParallelCollectionRDD(self, list(data), n, record_size)

    def generate(
        self,
        generator: Callable[[int], Any],
        num_partitions: int,
        record_size: Optional[int] = None,
        compute_multiplier: float = 2.0,
        name: str = "source",
    ) -> "RDD":
        """Create a source RDD from a deterministic per-partition generator.

        Models loading input from stable storage (S3/HDFS): recomputing a
        source partition re-pays the generator's fetch/deserialise cost.
        The generator returns the partition's records as a list, or — when
        they are numbers it drew as NumPy arrays — as ``columns(*arrays)``
        (:func:`repro.engine.columnar.columns`), which keeps them columnar
        until something needs rows.
        """
        from repro.engine.transformations import GeneratedRDD

        return GeneratedRDD(self, generator, num_partitions, record_size, compute_multiplier, name)

    @property
    def default_parallelism(self) -> int:
        """Total CPU slots across live workers (Spark's default parallelism)."""
        return sum(w.slots for w in self.cluster.live_workers()) or 1

    def _next_rdd_id(self) -> int:
        return next(self._rdd_counter)

    def _register_rdd(self, rdd: "RDD") -> None:
        self._rdds.append(rdd)
        self._rdds_by_id[rdd.rdd_id] = rdd

    def rdd_by_id(self, rdd_id: int) -> Optional["RDD"]:
        """The registered RDD with this id, if any (invariant checking)."""
        return self._rdds_by_id.get(rdd_id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_job(self, rdd: "RDD", func: Callable[[List[Any]], Any]) -> List[Any]:
        """Run ``func`` over every partition of ``rdd``; returns per-partition results."""
        return self.scheduler.run_job(rdd, func)

    def submit_job(
        self,
        rdd: "RDD",
        func: Callable[[List[Any]], Any],
        pool: Optional[str] = None,
        name: Optional[str] = None,
        on_done: Optional[Callable[[Any], None]] = None,
    ):
        """Submit an action without blocking; returns a ``JobHandle``."""
        return self.scheduler.submit_job(rdd, func, pool=pool, name=name, on_done=on_done)

    @contextlib.contextmanager
    def job_pool(self, name: str) -> Iterator[None]:
        """Route every action submitted in this scope into the named pool.

        Mirrors Spark's ``spark.scheduler.pool`` local property: workload
        code stays pool-agnostic (``rdd.count()`` just works) while the
        caller — typically the job server — decides where its jobs run.
        """
        previous = self.current_job_pool
        self.current_job_pool = name
        try:
            yield
        finally:
            self.current_job_pool = previous

    def adopt_worker(self, worker: "Worker") -> None:
        """Wire a joining worker into the application-wide services."""
        if worker.block_manager is None:
            worker.block_manager = BlockManager(worker, index=self.block_index)
        elif worker.block_manager.index is None:
            worker.block_manager.index = self.block_index
        if worker.obs is None:
            worker.obs = self.obs
        self.shuffle_manager.register_worker(worker)

    # ------------------------------------------------------------------
    # Block lookup across the cluster
    # ------------------------------------------------------------------
    def find_block(
        self, rdd: "RDD", partition: int, prefer: Optional["Worker"] = None
    ) -> Optional[Tuple[Any, int, "Worker", str]]:
        """Locate a cached partition on any live worker.

        Returns ``(data, nbytes, worker, tier)`` or None.  The preferred
        worker (the would-be reader) wins when it holds a copy; otherwise the
        earliest-joined holder serves, matching the seed's worker-scan order.
        Resolution is an index lookup — O(#holders), not O(#workers).
        """
        block_id = block_id_for(rdd.rdd_id, partition)
        holders = self.block_index.holders(block_id)
        if not holders:
            return None
        target = None
        if prefer is not None and prefer.alive:
            for worker in holders:
                if worker.worker_id == prefer.worker_id:
                    target = worker
                    break
        if target is None:
            target = holders[0]
        hit = target.block_manager.get(block_id)
        if hit is None:  # pragma: no cover - index and store always agree
            return None
        data, nbytes, tier = hit
        return data, nbytes, target, tier

    def block_exists(self, rdd: "RDD", partition: int) -> bool:
        """True when a cached copy of the partition exists on a live worker.

        One dict lookup against the block-location index (the seed scanned
        every worker's block manager here, under the scheduler's hot loop).
        """
        return self.block_index.exists(block_id_for(rdd.rdd_id, partition))

    def block_exists_scan(self, rdd: "RDD", partition: int) -> bool:
        """Reference worker-scan implementation of :meth:`block_exists`.

        This is the original O(workers) probe; the block-index property
        tests hold :meth:`block_exists` to exactly its answers.
        """
        block_id = block_id_for(rdd.rdd_id, partition)
        return any(
            w.block_manager is not None and w.block_manager.has(block_id)
            for w in self.cluster.live_workers()
        )

    def cached_partition_count(self, rdd: "RDD") -> int:
        """How many of an RDD's partitions are currently cached somewhere."""
        return sum(1 for p in range(rdd.num_partitions) if self.block_exists(rdd, p))

    def drop_cached_rdd(self, rdd: "RDD") -> None:
        """Remove all cached partitions of an RDD (unpersist)."""
        for worker in self.cluster.live_workers():
            if worker.block_manager is not None:
                worker.block_manager.remove_rdd(rdd.rdd_id)

    # ------------------------------------------------------------------
    def metrics_report(self) -> Dict[str, Any]:
        """A traced run's counters and histograms (empty when tracing is off).

        Derived, never recorded twice: task, block, shuffle and checkpoint
        counters come from the always-on books; the rest from the spans on
        the bus (:func:`~repro.obs.metrics.span_metrics`).  A counter that
        never moved is absent.
        """
        if not self.obs.enabled:
            return {"counters": {}, "histograms": {}}
        counters, samples = span_metrics(self.obs.bus.events)
        stats = self.scheduler.stats
        blocks = [
            w.block_manager.stats
            for w in self.cluster.workers.values()
            if w.block_manager is not None
        ]
        shuffle, ckpt = self.shuffle_manager, self.checkpoints
        books = {
            "scheduler.tasks_completed": stats.tasks_completed,
            "scheduler.tasks_lost": stats.tasks_lost,
            "scheduler.tasks_dispatched": (
                stats.tasks_completed + stats.tasks_lost + len(self.scheduler.running)
            ),
            "blocks.puts": sum(b.puts for b in blocks),
            "blocks.dropped": sum(b.drops for b in blocks),
            "blocks.spilled": sum(b.evictions_to_disk for b in blocks),
            "shuffle.bytes_written": shuffle.bytes_written,
            "shuffle.bytes_fetched_local": shuffle.bytes_fetched_local,
            "shuffle.bytes_fetched_remote": shuffle.bytes_fetched_remote,
            "checkpoint.bytes_written": ckpt.bytes_written,
            "checkpoint.partitions_written": ckpt.partitions_written,
            "checkpoint.gc_deleted": ckpt.gc_deleted,
        }
        counters.update((name, n) for name, n in books.items() if n)
        return {
            "counters": dict(sorted(counters.items())),
            "histograms": {
                name: summary(values) for name, values in sorted(samples.items())
            },
        }

    @property
    def now(self) -> float:
        return self.env.now
