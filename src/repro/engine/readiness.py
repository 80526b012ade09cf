"""Incremental readiness: which tasks of a job can be dispatched right now.

Readiness is decided *incrementally*: resolve results are cached across
scheduling rounds in a pending-task dependency graph and invalidated only
when a block, shuffle output, or checkpoint actually appears or disappears
(change listeners on the block-location index, the shuffle manager, and the
checkpoint registry).  A round with no state change copies a memoised
frontier instead of re-walking the lineage DAG.

The scheduler calls four verbs — ``frontier``, ``dispatched``, ``lost``,
``retire`` — so which events invalidate a memoised frontier is decided here
and nowhere else.
``tests/engine/test_readiness.py`` holds every frontier to a cache-free walk.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.engine.block_index import parse_block_id
from repro.engine.dependencies import ShuffleDependency
from repro.engine.task import TaskKind, TaskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import FlintContext
    from repro.engine.job import JobHandle
    from repro.engine.rdd import RDD
    from repro.engine.scheduler import SchedulerStats


class Readiness:
    """Memoised per-job ready frontiers over cached resolve decisions."""

    def __init__(
        self, context: "FlintContext", running: Dict[Tuple, Any], stats: "SchedulerStats"
    ):
        self.context = context
        #: The scheduler's in-flight table, read (never written) by the walk.
        self._running = running
        self.stats = stats
        #: job id -> memoised ready frontier, keyed by spec key in walk
        #: order (absent = must rebuild next round).  Specs leave the dict
        #: the moment they stop being dispatch candidates — dispatched or
        #: map output registered — so a round reads the frontier as a plain
        #: ``values()`` copy with no per-spec checks.
        self._frontiers: Dict[int, Dict[Tuple, TaskSpec]] = {}
        #: job id -> RESULT specs in partition order, built once — the
        #: frontier rebuild filters these instead of re-allocating specs.
        self._root_specs: Dict[int, List[TaskSpec]] = {}
        # Resolve results cached across rounds, reverse edges for targeted
        # invalidation.
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

    # ------------------------------------------------------------------
    # The verbs
    # ------------------------------------------------------------------
    def frontier(self, job: "JobHandle") -> List[TaskSpec]:
        """``job``'s dispatch candidates, in the frozen walk order.

        Between rebuilds only two things change a spec's candidacy: it gets
        dispatched (now in ``running``; a fresh walk would skip it without
        expanding anything, since ready specs contribute no children), or
        its map output registers (the walk never visits available maps).
        Each pops the spec from the frontier dict at the event itself —
        :meth:`dispatched` and ``_on_shuffle_event`` — so the surviving dict
        *is* the walk's answer and a round just copies it.  A result needs
        no pop of its own: its spec left every frontier when it was
        dispatched, and a rebuild while it runs skips it as running.

        The pops are sound because every transition is monotone while the
        frontier is valid: results never unset, availability only flips off
        via a loss event, and a dispatched task either completes or dies on
        a path that reports :meth:`lost`.  A sibling job's identical map
        spec is popped by the same dispatch — if that task is lost, the
        drop restores both jobs' copies.
        """
        ready = self._frontiers.get(job.job_id)
        if ready is None:
            ready = self._frontiers[job.job_id] = self._walk(job)
            self.stats.readiness_rebuilds += 1
        return list(ready.values())

    def dispatched(self, key: Tuple) -> None:
        """The spec ``key`` entered ``running``: no job may dispatch it again.

        Map-task keys are job-agnostic, so one job's dispatch or output
        registration satisfies every sibling's copy of the spec; result
        keys embed the job id and only ever hit their owner's dict.
        """
        for ready in self._frontiers.values():
            ready.pop(key, None)

    def lost(self) -> None:
        """A task left ``running`` without completing, or state vanished.

        Lost in-flight tasks may not touch any tracked state (a result task
        holding no blocks), so the memoised frontiers cannot rely on change
        events alone: every one is rebuilt on its next read.
        """
        self._frontiers.clear()

    def retire(self, job: "JobHandle") -> None:
        """``job`` left the in-flight set; forget its frontier and roots."""
        self._frontiers.pop(job.job_id, None)
        self._root_specs.pop(job.job_id, None)

    # ------------------------------------------------------------------
    # Frontier walk and resolve
    # ------------------------------------------------------------------
    def _walk(self, job: "JobHandle") -> Dict[Tuple, TaskSpec]:
        """Depth-first frontier walk over the cached resolves.

        Enumeration order is part of the frozen contract: RESULT roots
        pushed in partition order (popped descending), running specs
        pruned without expansion, ``visited`` dedupe by task key.  Returns
        an insertion-ordered dict so later candidacy transitions pop specs
        by key in O(1) (see :meth:`frontier`).
        """
        roots = self._root_specs.get(job.job_id)
        if roots is None:
            roots = self._root_specs[job.job_id] = [
                TaskSpec(TaskKind.RESULT, job.rdd, p, func=job.func, job_id=job.job_id)
                for p in range(job.rdd.num_partitions)
            ]
        ready: Dict[Tuple, TaskSpec] = {}
        visited: Set[Tuple] = set()
        running = self._running
        sm = self.context.shuffle_manager
        stack: List[TaskSpec] = [s for s in roots if not job.has_result(s.partition)]
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
            else:  # a NarrowDependency: the only other kind there is
                for parent_partition in dep.parents_of(partition):
                    self._dependents.setdefault((dep.rdd.rdd_id, parent_partition), set()).add(key)
                    sub_ready, sub_needed = self._resolve(dep.rdd, parent_partition)
                    ready = ready and sub_ready
                    needed.extend(sub_needed)
        result = (ready, needed)
        self._resolve_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Change events and targeted invalidation
    # ------------------------------------------------------------------
    def _on_block_event(self, block_id: str, added: bool) -> None:
        parsed = parse_block_id(block_id)
        if parsed is not None:
            self._invalidate_node(parsed)

    def _on_shuffle_event(self, shuffle_id: int, map_id: int, available: bool) -> None:
        if available:
            # The map spec is no longer a dispatch candidate for anyone,
            # exactly as if it had been dispatched.  Availability only flips
            # back off via the loss branch below, which drops every frontier.
            self.dispatched((TaskKind.SHUFFLE_MAP.value, shuffle_id, map_id))
            if self.context.shuffle_manager.has_missing(shuffle_id):
                # A registration that leaves the shuffle incomplete cannot
                # flip any dependant ready; it only shrinks their needed
                # lists, and the rebuild walk already skips available map
                # specs.  The cached lists go stale-but-superset, which
                # ``_needed_unchanged`` treats as benign.
                return
            for key in list(self._shuffle_dependents.get(shuffle_id, ())):
                self._invalidate_node(key)
            return
        # Loss events: the frontiers are not a pure function of the cached
        # answers (the walk also consulted map availability), so an
        # unchanged-answer repair cannot prove them valid, and they are
        # dropped unconditionally.  The shuffle's cached dependants and
        # everything built on them are dropped too, not repaired: a
        # revocation loses many maps of one shuffle at once, and only the
        # first loss finds anything cached — the rest cost one dict probe
        # per dependant, and the next walk re-resolves lazily.
        cache = self._resolve_cache
        queue = deque(self._shuffle_dependents.get(shuffle_id, ()))
        while queue:
            k = queue.popleft()
            if cache.pop(k, None) is None:
                continue
            self.stats.readiness_invalidations += 1
            queue.extend(self._dependents.get(k, ()))
        self.lost()

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
            # changed either, so the cascade and the frontiers both stand.
            rdd = self._rdd_index.get(k[0])
            if rdd is not None:
                new = self._resolve(rdd, k[1])
                if new[0] == old[0] and self._needed_unchanged(new[1], old[1]):
                    continue
            self.lost()
            stack.extend(self._dependents.get(k, ()))

    def _needed_unchanged(self, new: List[TaskSpec], old: List[TaskSpec]) -> bool:
        """Is ``new`` exactly ``old``, or ``old`` minus now-available maps?

        Pairwise identity is valid because needed lists hold only
        ``_map_specs``-interned objects.  The gap-tolerant direction is sound
        because the rebuild walk skips available map specs without expanding
        them — pushing the superset list produces the identical walk.  Any
        other difference (growth, reorder, unavailable gap) returns False
        and the caller drops the frontiers.
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
