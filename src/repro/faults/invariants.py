"""Engine-wide consistency invariants, checked after every injected fault.

The checker is read-only: it cross-examines the driver-side trackers (block
location index, shuffle missing-sets, checkpoint registry, scheduler books)
against ground truth (per-worker block managers, local disks, the DFS) and
records every discrepancy as a violation string.  It subscribes to the
checkpoint registry's change feed so it can tell a *notified* checkpoint
deletion (GC, epoch discard — legal) from a silent one (a bug).

Invariants:

1. **Block index truth** — every indexed block exists on its live worker
   (no ghosts), every cached block is indexed (no leaks), and dead workers
   have no index entries.
2. **Shuffle missing-set truth** — the maintained missing-map set of every
   shuffle equals a fresh per-map probe of worker disks.
3. **Checkpoint registry truth** — every partition the registry claims is
   durable actually exists in the DFS, and the DFS holds exactly the
   checkpoints the registry announced (no silent appearance or loss).
4. **Checkpoint frontier monotonicity** — once an RDD is fully
   checkpointed it stays durable until a *notified* GC or discard removes
   it; the frontier never silently regresses.
5. **Scheduler books** — no task is running on a dead worker, per-worker
   busy counts equal the running-task census and never exceed slots, and
   nothing queued for checkpointing is simultaneously running.
6. **Job books** — no task runs on behalf of a retired or unknown job, and
   per-job / per-pool running-task counters equal the running census.
7. **Block ownership** — every cached RDD block belongs to a registered,
   still-persisted RDD: a finished or abandoned job may not leak blocks of
   unpersisted datasets into the shared cache.
8. **Trace books** (active only when tracing is enabled) — the event bus's
   completed/lost task spans reconcile *exactly* with the scheduler's own
   counters: totals, per-kind counts, per-pool completions, and per-job
   completions all agree with the books the scheduler keeps regardless of
   tracing.  Observation must never drift from the thing observed.

Result equivalence with the failure-free run (the sixth invariant) is
enforced by :mod:`repro.faults.harness`, which owns both runs.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from repro.engine.block_index import parse_block_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import FlintContext


class InvariantViolation(AssertionError):
    """One or more engine invariants failed under fault injection."""

    def __init__(self, violations: List[str]):
        super().__init__(
            f"{len(violations)} invariant violation(s):\n  " + "\n  ".join(violations)
        )
        self.violations = list(violations)


def _parse_ckpt_path(path: str) -> Optional[Tuple[int, int]]:
    """``ckpt/rdd_<id>/part_<p>`` -> ``(id, p)``, else None."""
    parts = path.split("/")
    if len(parts) != 3 or parts[0] != "ckpt":
        return None
    try:
        return int(parts[1][len("rdd_"):]), int(parts[2][len("part_"):])
    except ValueError:
        return None


class InvariantChecker:
    """Cross-checks one context's trackers against ground truth."""

    def __init__(self, ctx: "FlintContext"):
        self.ctx = ctx
        self.violations: List[str] = []
        self.checks_run = 0
        #: Checkpoints the registry has *announced* as durable and not yet
        #: announced as deleted — the notified view of the DFS.
        self._ckpt_live: Set[Tuple[int, int]] = set()
        #: RDD ids whose checkpoints were removed via a notified whole-RDD
        #: GC or a notified partition discard (legal frontier regressions).
        self._ckpt_removed: Set[int] = set()
        self._fully_seen: Set[int] = set()
        ctx.checkpoints.add_listener(self._on_checkpoint_event)

    # ------------------------------------------------------------------
    def _on_checkpoint_event(self, rdd_id: int, partition, available: bool) -> None:
        if available:
            self._ckpt_live.add((rdd_id, partition))
            return
        if partition is None:
            self._ckpt_live = {(r, p) for r, p in self._ckpt_live if r != rdd_id}
        else:
            self._ckpt_live.discard((rdd_id, partition))
        self._ckpt_removed.add(rdd_id)

    # ------------------------------------------------------------------
    def check(self, label: str = "") -> List[str]:
        """Run every invariant; returns (and accumulates) new violations."""
        self.checks_run += 1
        found: List[str] = []
        found.extend(self._check_block_index())
        found.extend(self._check_shuffle_truth())
        found.extend(self._check_checkpoints())
        found.extend(self._check_scheduler_books())
        found.extend(self._check_job_books())
        found.extend(self._check_block_ownership())
        found.extend(self._check_trace_books())
        if label:
            found = [f"{label}: {v}" for v in found]
        self.violations.extend(found)
        return found

    def raise_if_violated(self) -> None:
        if self.violations:
            raise InvariantViolation(self.violations)

    # ------------------------------------------------------------------
    def _check_block_index(self) -> List[str]:
        out: List[str] = []
        index = self.ctx.block_index
        spill_prefix = "spill/"
        for worker in self.ctx.cluster.workers.values():
            indexed = set(index.blocks_on(worker.worker_id))
            if not worker.alive:
                for block_id in sorted(indexed):
                    out.append(
                        f"ghost block {block_id!r} indexed on dead worker {worker.worker_id}"
                    )
                continue
            manager = worker.block_manager
            if manager is None:
                for block_id in sorted(indexed):
                    out.append(
                        f"block {block_id!r} indexed on worker {worker.worker_id} "
                        "which has no block manager"
                    )
                continue
            actual = set(manager.memory_block_ids())
            actual.update(
                key[len(spill_prefix):]
                for key in worker.local_disk.keys()
                if key.startswith(spill_prefix)
            )
            for block_id in sorted(indexed - actual):
                out.append(
                    f"ghost block {block_id!r}: indexed on live worker "
                    f"{worker.worker_id} but absent from its store"
                )
            for block_id in sorted(actual - indexed):
                out.append(
                    f"leaked block {block_id!r}: cached on worker "
                    f"{worker.worker_id} but missing from the location index"
                )
        return out

    def _check_shuffle_truth(self) -> List[str]:
        out: List[str] = []
        sm = self.ctx.shuffle_manager
        for shuffle_id, num_maps in sm.tracked_shuffles():
            maintained = sm.missing_set(shuffle_id)
            probed = {
                m for m in range(num_maps) if not sm.has_map_output(shuffle_id, m)
            }
            if maintained != probed:
                phantom = sorted(maintained - probed)
                stale = sorted(probed - maintained)
                detail = []
                if phantom:
                    detail.append(f"marked missing but present: {phantom}")
                if stale:
                    detail.append(f"lost but not marked missing: {stale}")
                out.append(
                    f"shuffle {shuffle_id} missing-set untruthful ({'; '.join(detail)})"
                )
        return out

    def _check_checkpoints(self) -> List[str]:
        out: List[str] = []
        registry = self.ctx.checkpoints
        dfs = self.ctx.env.dfs
        written = registry.written_partitions()
        for rdd_id, parts in sorted(written.items()):
            for partition in sorted(parts):
                if not dfs.exists(registry.path_for(rdd_id, partition)):
                    out.append(
                        f"checkpoint registry lists rdd {rdd_id} partition "
                        f"{partition} but the DFS does not hold it"
                    )
        # The notified view must match the DFS exactly: checkpoints may only
        # appear via record_write and disappear via a notified deletion.
        in_dfs = {
            parsed
            for path, _nbytes in dfs.items()
            if (parsed := _parse_ckpt_path(path)) is not None
        }
        for rdd_id, partition in sorted(self._ckpt_live - in_dfs):
            out.append(
                f"checkpoint rdd {rdd_id} partition {partition} vanished from "
                "the DFS without a registry deletion notification"
            )
        for rdd_id, partition in sorted(in_dfs - self._ckpt_live):
            out.append(
                f"checkpoint rdd {rdd_id} partition {partition} is in the DFS "
                "but was never announced by the registry"
            )
        # Frontier monotonicity: a fully-checkpointed RDD may only leave the
        # frontier through a notified GC/discard.
        fully_now = set()
        for rdd_id, parts in written.items():
            expected = registry.expected_partitions(rdd_id)
            if expected is not None and len(parts) >= expected:
                fully_now.add(rdd_id)
        for rdd_id in sorted(self._fully_seen - fully_now - self._ckpt_removed):
            out.append(
                f"checkpoint frontier regressed: rdd {rdd_id} was fully "
                "checkpointed but silently lost partitions"
            )
        self._fully_seen |= fully_now
        return out

    def _check_scheduler_books(self) -> List[str]:
        out: List[str] = []
        scheduler = self.ctx.scheduler
        workers = self.ctx.cluster.workers
        census: Counter = Counter()
        for key, running in scheduler.running.items():
            census[running.worker_id] += 1
            worker = workers.get(running.worker_id)
            if worker is None or not worker.alive:
                out.append(
                    f"task {key} still booked as running on dead worker "
                    f"{running.worker_id}"
                )
        for worker_id, busy in scheduler.busy.items():
            worker = workers.get(worker_id)
            if worker is None or not worker.alive:
                out.append(f"busy count {busy} retained for dead worker {worker_id}")
                continue
            if busy != census.get(worker_id, 0):
                out.append(
                    f"worker {worker_id} busy count {busy} != "
                    f"{census.get(worker_id, 0)} running tasks"
                )
            if not 0 <= busy <= worker.slots:
                out.append(
                    f"worker {worker_id} busy count {busy} outside [0, {worker.slots}]"
                )
        for key in scheduler._checkpoint_queue:
            if key in scheduler.running:
                out.append(f"checkpoint task {key} is both queued and running")
        return out

    def _check_job_books(self) -> List[str]:
        """Per-job and per-pool slot accounting under multiplexed jobs."""
        out: List[str] = []
        scheduler = self.ctx.scheduler
        jobs = scheduler._jobs
        job_census: Counter = Counter()
        pool_census: Counter = Counter()
        for key, running in scheduler.running.items():
            job = running.job
            if job is None:  # checkpoint write: job-agnostic by design
                continue
            if job.done or jobs.get(job.job_id) is not job:
                out.append(
                    f"task {key} still running on behalf of retired job "
                    f"{job.name!r} (id {job.job_id})"
                )
                continue
            job_census[job.job_id] += 1
            pool_census[job.pool] += 1
        for job in jobs.values():
            if job.running_tasks != job_census.get(job.job_id, 0):
                out.append(
                    f"job {job.name!r} books {job.running_tasks} running tasks "
                    f"but the census finds {job_census.get(job.job_id, 0)}"
                )
        for name, pool in scheduler.pools.items():
            if pool.running_tasks != pool_census.get(name, 0):
                out.append(
                    f"pool {name!r} books {pool.running_tasks} running tasks "
                    f"but the census finds {pool_census.get(name, 0)}"
                )
        return out

    def _check_trace_books(self) -> List[str]:
        """Emitted task spans must reconcile exactly with scheduler counters.

        Only active when the context's observability layer is enabled (the
        checker must have been constructed before the run so the bus holds
        the whole history).  The scheduler maintains its per-job and
        per-pool completion books unconditionally, so every span count has
        an independent ledger to agree with.
        """
        obs = getattr(self.ctx, "obs", None)
        if obs is None or not obs.enabled:
            return []
        out: List[str] = []
        scheduler = self.ctx.scheduler
        stats = scheduler.stats
        task_events = obs.bus.by_kind("task")
        completed = [e for e in task_events if e.status == "complete"]
        lost = [e for e in task_events if e.status == "lost"]
        if len(completed) != stats.tasks_completed:
            out.append(
                f"trace books: {len(completed)} completed task spans but the "
                f"scheduler counts {stats.tasks_completed} completions"
            )
        if len(lost) != stats.tasks_lost:
            out.append(
                f"trace books: {len(lost)} lost task spans but the scheduler "
                f"counts {stats.tasks_lost} lost tasks"
            )
        kind_census = Counter(e.attrs.get("task_kind") for e in completed)
        for kind, expected in (
            ("result", stats.result_tasks),
            ("shuffle_map", stats.map_tasks),
            ("checkpoint", stats.checkpoint_tasks),
        ):
            if kind_census.get(kind, 0) != expected:
                out.append(
                    f"trace books: {kind_census.get(kind, 0)} completed "
                    f"{kind!r} spans but the scheduler counts {expected}"
                )
        pool_census = Counter(
            e.pool for e in completed if e.job_id is not None and e.pool is not None
        )
        for name, pool in scheduler.pools.items():
            if pool_census.get(name, 0) != pool.tasks_completed:
                out.append(
                    f"trace books: pool {name!r} has {pool_census.get(name, 0)} "
                    f"completed spans but books {pool.tasks_completed} completions"
                )
        job_census = Counter(e.job_id for e in completed if e.job_id is not None)
        books = scheduler.tasks_completed_by_job
        for job_id in sorted(set(job_census) | set(books)):
            if job_census.get(job_id, 0) != books.get(job_id, 0):
                out.append(
                    f"trace books: job {job_id} has {job_census.get(job_id, 0)} "
                    f"completed spans but books {books.get(job_id, 0)} completions"
                )
        return out

    def _check_block_ownership(self) -> List[str]:
        """No job may leak cached blocks of unpersisted or unknown RDDs."""
        out: List[str] = []
        seen: Set[int] = set()
        for worker in self.ctx.cluster.live_workers():
            for block_id in self.ctx.block_index.blocks_on(worker.worker_id):
                parsed = parse_block_id(block_id)
                if parsed is None:
                    out.append(f"cached block {block_id!r} has no rdd_<id>_<p> form")
                    continue
                rdd_id, _partition = parsed
                if rdd_id in seen:
                    continue
                seen.add(rdd_id)
                rdd = self.ctx.rdd_by_id(rdd_id)
                if rdd is None:
                    out.append(
                        f"cached block {block_id!r} references unregistered rdd {rdd_id}"
                    )
                elif not rdd.persisted:
                    out.append(
                        f"block leak: rdd {rdd_id} ({rdd.name}) is cached on "
                        f"worker {worker.worker_id} but no longer persisted"
                    )
        return out
