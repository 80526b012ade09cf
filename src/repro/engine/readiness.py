"""Incremental readiness: which tasks of a job can be dispatched right now.

Each in-flight job's ready frontier is memoised between scheduling rounds.
The walk that builds it records what it read — *stored* nodes (in a block or
checkpoint), *blocked* nodes (not ready), *waiting* shuffles (incomplete) —
and the change listeners on the block index, shuffle manager and checkpoint
registry drop the frontiers only on an event that can change one of those
answers, and then tell the scheduler a round is due.  Resolve answers live for one walk, so once no job is in flight
nothing is retained.  The scheduler calls four verbs — ``frontier``,
``dispatched``, ``lost``, ``retire``; ``tests/engine/test_readiness.py``
holds every frontier to a memo-free walk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.engine.block_index import parse_block_id
from repro.engine.dependencies import ShuffleDependency
from repro.engine.task import TaskKind, TaskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import FlintContext
    from repro.engine.job import JobHandle
    from repro.engine.rdd import RDD
    from repro.engine.scheduler import SchedulerStats


class Readiness:
    """Memoised per-job ready frontiers, watched through what their walks read."""

    def __init__(
        self,
        context: "FlintContext",
        running: Dict[Tuple, Any],
        stats: "SchedulerStats",
        on_change: Callable[[], None],
    ):
        self.context = context
        #: The scheduler's in-flight table, read (never written) by the walk.
        self._running = running
        self.stats = stats
        #: Called when a change event drops the frontiers: a round is due.
        self._on_change = on_change
        #: job id -> memoised ready frontier, keyed by spec key in walk
        #: order (absent = must rebuild next round); see :meth:`frontier`.
        self._frontiers: Dict[int, Dict[Tuple, TaskSpec]] = {}
        #: job id -> RESULT specs in partition order, built once.
        self._root_specs: Dict[int, List[TaskSpec]] = {}
        #: What the memoised frontiers' walks read, cleared with them: nodes
        #: found stored (with the RDD, to re-check a removal), nodes found
        #: not ready, shuffle ids found incomplete.
        self._stored: Dict[Tuple[int, int], "RDD"] = {}
        self._blocked: Set[Tuple[int, int]] = set()
        self._waiting: Set[int] = set()
        context.block_index.add_listener(self._on_block_event)
        context.shuffle_manager.add_listener(self._on_shuffle_event)
        context.checkpoints.add_listener(self._on_checkpoint_event)

    # ------------------------------------------------------------------
    # The verbs
    # ------------------------------------------------------------------
    def frontier(self, job: "JobHandle") -> List[TaskSpec]:
        """``job``'s dispatch candidates, in the frozen walk order.

        Between rebuilds a spec stops being a candidate only when it is
        dispatched or its map output registers; each pops it at the event
        (:meth:`dispatched`, ``_on_shuffle_event``), so the surviving dict
        *is* a fresh walk's answer.  Sound because, while the frontier is
        valid, results never unset, availability only flips off via a loss,
        and a dispatched task completes or dies on a path that reports
        :meth:`lost` — which restores a sibling's copy of a popped map spec.
        """
        ready = self._frontiers.get(job.job_id)
        if ready is None:
            ready = self._frontiers[job.job_id] = self._walk(job)
            self.stats.readiness_rebuilds += 1
        return list(ready.values())

    def dispatched(self, key: Tuple) -> None:
        """The spec ``key`` entered ``running``: no job may dispatch it again.

        Map-task keys are job-agnostic, so this pops every sibling's copy;
        result keys embed the job id and only hit their owner's dict.
        """
        for ready in self._frontiers.values():
            ready.pop(key, None)

    def lost(self) -> None:
        """A task left ``running`` without completing, or state vanished.

        A lost task may touch no tracked state (a result task holds no
        blocks), so every frontier is rebuilt on its next read.
        """
        self._frontiers.clear()
        self._stored.clear()
        self._blocked.clear()
        self._waiting.clear()

    def retire(self, job: "JobHandle") -> None:
        """``job`` left the in-flight set; the read-sets go with the last frontier."""
        self._frontiers.pop(job.job_id, None)
        self._root_specs.pop(job.job_id, None)
        if not self._frontiers:
            self.lost()

    # ------------------------------------------------------------------
    # Frontier walk
    # ------------------------------------------------------------------
    def _is_stored(self, rdd: "RDD", partition: int) -> bool:
        ctx = self.context
        return ctx.block_exists(rdd, partition) or ctx.checkpoints.has_partition(rdd, partition)

    def _walk(self, job: "JobHandle") -> Dict[Tuple, TaskSpec]:
        """Depth-first frontier walk, recording what it reads.

        The order is frozen: RESULT roots pushed in partition order, running
        specs pruned unexpanded, ``visited`` dedupe by task key.  ``memo`` and
        ``missing`` live for one walk: a lineage diamond resolves once.
        """
        roots = self._root_specs.get(job.job_id)
        if roots is None:
            roots = self._root_specs[job.job_id] = [
                TaskSpec(TaskKind.RESULT, job.rdd, p, func=job.func, job_id=job.job_id)
                for p in range(job.rdd.num_partitions)
            ]
        memo: Dict[Tuple[int, int], Tuple[bool, List[TaskSpec]]] = {}
        missing: Dict[int, List[TaskSpec]] = {}
        ready: Dict[Tuple, TaskSpec] = {}
        visited: Set[Tuple] = set()
        stack: List[TaskSpec] = [s for s in roots if not job.has_result(s.partition)]
        while stack:
            spec = stack.pop()
            key = spec.key
            if key in visited:
                continue
            visited.add(key)
            if key in self._running:
                continue
            target = spec.dep.rdd if spec.kind == TaskKind.SHUFFLE_MAP else spec.rdd
            is_ready, needed = self._resolve(target, spec.partition, memo, missing)
            if is_ready:
                ready[key] = spec
            else:
                stack.extend(needed)
        return ready

    def _resolve(
        self, rdd: "RDD", partition: int, memo: Dict, missing: Dict
    ) -> Tuple[bool, List[TaskSpec]]:
        """``(ready, needed map tasks)`` for ``(rdd, partition)`` right now."""
        key = (rdd.rdd_id, partition)
        answer = memo.get(key)
        if answer is not None:
            self.stats.resolve_cache_hits += 1
            return answer
        self.stats.resolve_cache_misses += 1
        if self._is_stored(rdd, partition):
            self._stored[key] = rdd
            answer = memo[key] = (True, [])
            return answer
        sm = self.context.shuffle_manager
        ready = True
        needed: List[TaskSpec] = []
        for dep in rdd.dependencies:
            if isinstance(dep, ShuffleDependency):
                sid = dep.shuffle_id
                if sm.has_missing(sid):
                    ready = False
                    self._waiting.add(sid)
                    if sid not in missing:
                        missing[sid] = [TaskSpec(TaskKind.SHUFFLE_MAP, dep.rdd, m, dep=dep)
                                        for m in sm.missing_maps(dep)]
                    needed.extend(missing[sid])
            else:  # a NarrowDependency: the only other kind there is
                for parent_partition in dep.parents_of(partition):
                    sub_ready, sub_needed = self._resolve(dep.rdd, parent_partition, memo, missing)
                    ready = ready and sub_ready
                    needed.extend(sub_needed)
        if not ready:
            self._blocked.add(key)
        answer = memo[key] = (ready, needed)
        return answer

    # ------------------------------------------------------------------
    # Change events: drop the frontiers only when a read answer can change
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        """An event changed what a frontier read: count it, drop them all,
        and ask the scheduler for a round."""
        if self._frontiers:
            self.stats.readiness_invalidations += 1
            self.lost()
            self._on_change()

    def _on_node_event(self, key: Tuple[int, int], added: bool) -> None:
        if added:
            # Only a node read as blocked can turn ready.
            if key in self._blocked:
                self._invalidate()
            return
        # A second holder (another worker, a checkpoint) keeps it stored.
        rdd = self._stored.get(key)
        if rdd is not None and not self._is_stored(rdd, key[1]):
            self._invalidate()

    def _on_block_event(self, block_id: str, added: bool) -> None:
        key = parse_block_id(block_id)
        if key is not None:
            self._on_node_event(key, added)

    def _on_checkpoint_event(self, rdd_id: int, partition: Optional[int], available: bool) -> None:
        if partition is not None:
            self._on_node_event((rdd_id, partition), available)
        elif any(  # whole-RDD deletion (checkpoint GC)
            key[0] == rdd_id and not self._is_stored(rdd, key[1])
            for key, rdd in self._stored.items()
        ):
            self._invalidate()

    def _on_shuffle_event(self, shuffle_id: int, map_id: int, available: bool) -> None:
        if not available:  # a loss drops the frontiers unconditionally
            self._invalidate()
            return
        # No job may dispatch the map spec again.  Only a registration that
        # completes a shuffle a walk found waiting turns anything ready.
        self.dispatched((TaskKind.SHUFFLE_MAP.value, shuffle_id, map_id))
        if shuffle_id in self._waiting and not self.context.shuffle_manager.has_missing(shuffle_id):
            self._invalidate()
