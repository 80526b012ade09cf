"""Hash shuffle machinery.

Map tasks bucket their output by the shuffle's partitioner and write it to
their worker's *local* disk — which means a revocation destroys those map
outputs and forces the map tasks to re-run, the behaviour behind the paper's
shuffle-sensitive results (PageRank in Figures 7/8).  The ``ShuffleManager``
is the driver-side MapOutputTracker: it knows which map outputs exist and
where, and serves each reducer its buckets.  What a map output holds, and
in what order, is :mod:`repro.engine.buckets`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.engine.buckets import MapOutput, reduce_major
from repro.engine.columnar import ColumnarBatch
from repro.engine.dependencies import ShuffleDependency
from repro.obs import SpanEvent
from repro.storage.local_disk import DiskFullError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.worker import Worker


@dataclass
class MapStatus:
    """Location and per-reduce-bucket sizes of one map task's output."""

    worker_id: str
    disk_key: str
    bucket_bytes: Tuple[int, ...]

    @property
    def total_bytes(self) -> int:
        return sum(self.bucket_bytes)


@dataclass
class FetchPlan:
    """Precomputed fetch layout for one complete shuffle.

    Built once per (shuffle, output-epoch) and reused by every reduce task:
    ``outputs[map_id]`` is the map output on disk, and the byte totals are
    pre-aggregated so a fetch resolves its local/remote split with two list
    reads instead of an O(maps) status walk.  Any output mutation (register,
    eviction, worker loss) ends the epoch and drops the plan, and with it
    any transposed copy of the outputs.
    """

    # map_id -> that map task's output, its rows a tuple; empty when
    # ``transposed`` holds the shuffle.
    outputs: List[MapOutput]
    # Every map output as one reduce-major batch, when all of them are
    # batches of one schema: bucket r is ``rows.slice(offsets[r],
    # offsets[r + 1])``, map order kept within it.  Else None.
    transposed: Optional[MapOutput]
    # reduce_id -> total bytes across all map outputs.
    reduce_bytes: List[int]
    # worker_id -> (reduce_id -> bytes served from that worker).
    worker_bytes: Dict[str, List[int]]


class ShuffleFetchFailure(RuntimeError):
    """A reduce task found a map output missing (its worker died)."""

    def __init__(self, shuffle_id: int, missing_maps: List[int]):
        super().__init__(f"shuffle {shuffle_id} missing map outputs {missing_maps}")
        self.shuffle_id = shuffle_id
        self.missing_maps = missing_maps


class ShuffleManager:
    """Tracks map outputs for every shuffle in the application."""

    def __init__(self, obs=None):
        #: Observability hook (attribute-wired by the engine context);
        #: None keeps the fetch/register hot paths branch-free.
        self.obs = obs
        # shuffle_id -> map_partition -> MapStatus
        self._outputs: Dict[int, Dict[int, MapStatus]] = {}
        self._workers: Dict[str, "Worker"] = {}
        # shuffle_id -> set of map partitions whose output is currently
        # absent.  Maintained on register/evict/revoke so ``missing_maps``
        # is O(|missing|) and ``is_complete`` is O(1) — the seed re-probed
        # every map partition's worker on each call.
        self._missing: Dict[int, Set[int]] = {}
        self._num_maps: Dict[int, int] = {}
        # worker_id -> {(shuffle_id, map_id)} it currently serves, so loss
        # of a worker is handled in O(outputs it owned), not O(all outputs).
        self._owned: Dict[str, Set[Tuple[int, int]]] = {}
        # shuffle_id -> maintained total registered bytes, so
        # ``output_bytes`` is O(1) instead of summing every MapStatus.
        self._total_bytes: Dict[int, int] = {}
        # shuffle_id -> cached FetchPlan, valid until the next
        # register/evict/loss of one of its outputs drops it (see
        # :class:`FetchPlan`).
        self._plans: Dict[int, FetchPlan] = {}
        self.plans_built = 0
        self.plan_hits = 0
        self.bytes_written = 0
        self.bytes_fetched_remote = 0
        self.bytes_fetched_local = 0
        self.missing_queries = 0
        #: Callbacks ``(shuffle_id, map_id, available: bool)`` fired whenever
        #: a map output appears or is lost, so readiness can pop a
        #: registered map spec and drop frontiers that read a lost output.
        self._listeners: List[Callable[[int, int, bool], None]] = []
        #: Fault-injection point: when set, ``on_shuffle_fetch`` fires at the
        #: top of every :meth:`fetch`, before the missing-map check — so an
        #: injected revocation of a serving worker surfaces as the genuine
        #: :class:`ShuffleFetchFailure` recovery path.
        self.fault_injector = None

    def add_listener(self, listener: Callable[[int, int, bool], None]) -> None:
        self._listeners.append(listener)

    def _notify(self, shuffle_id: int, map_id: int, available: bool) -> None:
        for listener in self._listeners:
            listener(shuffle_id, map_id, available)

    def _ensure_tracked(self, dep: ShuffleDependency) -> Set[int]:
        missing = self._missing.get(dep.shuffle_id)
        if missing is None:
            missing = set(range(dep.num_map_partitions))
            self._missing[dep.shuffle_id] = missing
            self._num_maps[dep.shuffle_id] = dep.num_map_partitions
        return missing

    def register_worker(self, worker: "Worker") -> None:
        if worker.worker_id not in self._workers:
            # Any death path (revocation, termination, direct kill) must
            # mark the worker's outputs lost or the missing-sets go stale.
            worker.add_death_listener(self._on_worker_death)
        self._workers[worker.worker_id] = worker

    def _on_worker_death(self, worker: "Worker") -> None:
        self.remove_outputs_on(worker.worker_id)

    @staticmethod
    def _disk_key(shuffle_id: int, map_id: int) -> str:
        return f"shuffle/{shuffle_id}/map_{map_id}"

    def _invalidate_plan(self, shuffle_id: int) -> None:
        """End the shuffle's output epoch: drop its cached fetch plan."""
        self._plans.pop(shuffle_id, None)

    # ------------------------------------------------------------------
    def register_map_output(
        self,
        dep: ShuffleDependency,
        map_id: int,
        worker: "Worker",
        output: MapOutput,
        record_size: int,
    ) -> MapStatus:
        """Store a map task's output on ``worker`` and record its location."""
        offsets = output.offsets
        if len(offsets) != dep.num_reduce_partitions + 1:
            raise ValueError(
                f"expected {dep.num_reduce_partitions} buckets, got {len(offsets) - 1}"
            )
        bucket_bytes = tuple([
            (end - start) * record_size for start, end in zip(offsets, offsets[1:])
        ])
        key = self._disk_key(dep.shuffle_id, map_id)
        total = offsets[-1] * record_size
        missing = self._ensure_tracked(dep)
        try:
            worker.local_disk.put(key, output, total)
        except DiskFullError:
            # Old shuffle files are always recoverable through lineage,
            # so a full disk evicts them oldest-first (Spark's
            # ContextCleaner plays the analogous role via RDD GC).
            self._evict_local_state(worker, needed=total, keep_key=key)
            worker.local_disk.put(key, output, total)
        status = MapStatus(worker.worker_id, key, bucket_bytes)
        sid = dep.shuffle_id
        statuses = self._outputs.setdefault(sid, {})
        old = statuses.get(map_id)
        if old is not None and old.worker_id != worker.worker_id:
            owned = self._owned.get(old.worker_id)
            if owned is not None:
                owned.discard((sid, map_id))
        statuses[map_id] = status
        self._invalidate_plan(sid)
        self._total_bytes[sid] = (
            self._total_bytes.get(sid, 0)
            + total
            - (old.total_bytes if old is not None else 0)
        )
        self._owned.setdefault(worker.worker_id, set()).add((sid, map_id))
        missing.discard(map_id)
        self.bytes_written += total
        obs = self.obs
        if not missing and obs is not None and obs.enabled:
            obs.bus.emit(SpanEvent(
                kind="stage",
                name=f"shuffle-{dep.shuffle_id}-maps-complete",
                start=obs.now(),
                status="instant",
                attrs={
                    "shuffle_id": dep.shuffle_id,
                    "num_maps": dep.num_map_partitions,
                },
            ))
        self._notify(dep.shuffle_id, map_id, True)
        return status

    def has_map_output(self, shuffle_id: int, map_id: int) -> bool:
        status = self._outputs.get(shuffle_id, {}).get(map_id)
        if status is None:
            return False
        worker = self._workers.get(status.worker_id)
        return worker is not None and worker.alive and worker.local_disk.has(status.disk_key)

    def missing_maps(self, dep: ShuffleDependency) -> List[int]:
        """Map partitions whose output is absent or lost.

        O(|missing|·log) from the maintained missing set — no per-map worker
        probes (``has_map_output`` remains available for point queries).
        """
        self.missing_queries += 1
        missing = self._missing.get(dep.shuffle_id)
        if missing is None:
            missing = self._ensure_tracked(dep)
        if not missing:
            return []
        return sorted(missing)

    def is_complete(self, dep: ShuffleDependency) -> bool:
        return not self._ensure_tracked(dep)

    def map_output_available(self, shuffle_id: int, map_id: int) -> bool:
        """O(1) point query against the maintained missing set."""
        missing = self._missing.get(shuffle_id)
        return missing is not None and map_id not in missing

    def has_missing(self, shuffle_id: int) -> bool:
        """O(1): does the shuffle still lack any map output?

        An untracked shuffle counts as missing everything (nothing has been
        registered for it yet).
        """
        missing = self._missing.get(shuffle_id)
        return missing is None or bool(missing)

    def fetch(
        self, dep: ShuffleDependency, reduce_id: int, to_worker: "Worker"
    ) -> Tuple[List[Any], int, int]:
        """Gather bucket ``reduce_id`` from every map output.

        Returns ``(buckets, local_bytes, remote_bytes)`` so the caller can
        charge network time for the remote portion.  ``buckets`` holds the
        non-empty buckets only, in map order, each an immutable tuple
        slice: the merge loops iterate buckets, so an empty one contributes
        nothing but a slice.  From a transposed plan it holds one batch
        slice instead: the reducer's records from every map, in map order.

        Raises:
            ShuffleFetchFailure: when any map output has been lost.
        """
        if self.fault_injector is not None:
            self.fault_injector.on_shuffle_fetch(dep, reduce_id, to_worker)
        # Inline missing_maps: the happy path needs only the emptiness
        # check, and the query counter must tick exactly as before.
        self.missing_queries += 1
        missing = self._missing.get(dep.shuffle_id)
        if missing is None:
            missing = self._ensure_tracked(dep)
        if missing:
            raise ShuffleFetchFailure(dep.shuffle_id, sorted(missing))
        plan = self._fetch_plan(dep)
        end = reduce_id + 1
        if plan.transposed is None:
            buckets = [
                rows[off[reduce_id]:off[end]]
                for rows, off in plan.outputs
                if off[reduce_id] != off[end]
            ]
        else:
            batch, off = plan.transposed
            start, stop = off[reduce_id], off[end]
            buckets = [batch.slice(start, stop)] if start != stop else []
        total = plan.reduce_bytes[reduce_id]
        served = plan.worker_bytes.get(to_worker.worker_id)
        local_bytes = served[reduce_id] if served is not None else 0
        remote_bytes = total - local_bytes
        self.bytes_fetched_local += local_bytes
        self.bytes_fetched_remote += remote_bytes
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.bus.emit(SpanEvent(
                kind="shuffle-fetch",
                name=f"shuffle-{dep.shuffle_id}-reduce-{reduce_id}",
                start=obs.now(),
                worker=to_worker.worker_id,
                status="instant",
                attrs={
                    "shuffle_id": dep.shuffle_id,
                    "reduce_id": reduce_id,
                    "local_bytes": local_bytes,
                    "remote_bytes": remote_bytes,
                },
            ))
        return buckets, local_bytes, remote_bytes

    def _fetch_plan(self, dep: ShuffleDependency) -> FetchPlan:
        """The cached :class:`FetchPlan` for a complete shuffle.

        Only called after the missing-map check passes, so every map output
        is present.  Rebuilt when the shuffle's output epoch has moved.
        """
        sid = dep.shuffle_id
        plan = self._plans.get(sid)
        if plan is not None:
            self.plan_hits += 1
            return plan
        self.plans_built += 1
        statuses = self._outputs[sid]
        n_reduce = dep.num_reduce_partitions
        outputs: List[MapOutput] = []
        reduce_bytes = [0] * n_reduce
        worker_bytes: Dict[str, List[int]] = {}
        for map_id in range(dep.num_map_partitions):
            status = statuses[map_id]
            worker = self._workers[status.worker_id]
            outputs.append(worker.local_disk.get(status.disk_key))
            served = worker_bytes.get(status.worker_id)
            if served is None:
                served = worker_bytes[status.worker_id] = [0] * n_reduce
            bb = status.bucket_bytes
            for r in range(n_reduce):
                nbytes = bb[r]
                reduce_bytes[r] += nbytes
                served[r] += nbytes
        transposed = reduce_major(outputs, n_reduce)
        if transposed is not None:
            outputs = []
        elif any(type(output.rows) is ColumnarBatch for output in outputs):
            # A shuffle mixing rows and batches: its batches become the
            # rows the row loop stores, once per plan, not once per fetch.
            rows = dep.declared.rows
            outputs = [
                MapOutput(tuple(rows(output.rows)), output.offsets)
                if type(output.rows) is ColumnarBatch else output
                for output in outputs
            ]
        plan = FetchPlan(outputs, transposed, reduce_bytes, worker_bytes)
        self._plans[sid] = plan
        return plan

    def _evict_local_state(self, worker: "Worker", needed: int, keep_key: str) -> None:
        """Free local-disk space by dropping recomputable state.

        Shuffle files go first (oldest shuffle id first), then cache spill;
        both regenerate through lineage if ever needed again.
        """
        shuffle_keys = sorted(
            (k for k in worker.local_disk.keys() if k.startswith("shuffle/") and k != keep_key),
            key=lambda k: int(k.split("/")[1]),
        )
        spill_keys = [k for k in worker.local_disk.keys() if k.startswith("spill/")]
        for key in shuffle_keys + spill_keys:
            if worker.local_disk.free_bytes >= needed:
                return
            worker.local_disk.delete(key)
            if key.startswith("shuffle/"):
                _prefix, shuffle_id, map_part = key.split("/")
                sid = int(shuffle_id)
                map_id = int(map_part.split("_")[1])
                popped = self._outputs.get(sid, {}).pop(map_id, None)
                if popped is not None:
                    owned = self._owned.get(popped.worker_id)
                    if owned is not None:
                        owned.discard((sid, map_id))
                    self._invalidate_plan(sid)
                    self._total_bytes[sid] = self._total_bytes.get(sid, 0) - popped.total_bytes
                    self._mark_lost(sid, map_id)
            elif worker.block_manager is not None:
                # Cache spill evicted behind the block manager's back: keep
                # the driver-side block-location index truthful.
                worker.block_manager.note_spill_deleted(key[len("spill/"):])

    def _mark_lost(self, shuffle_id: int, map_id: int) -> None:
        missing = self._missing.get(shuffle_id)
        if missing is not None and map_id not in missing:
            missing.add(map_id)
            self._notify(shuffle_id, map_id, False)

    def remove_outputs_on(self, worker_id: str) -> int:
        """Forget map outputs located on a dead worker; returns count lost.

        O(outputs the worker owned) via the ownership sets — the seed
        scanned every shuffle's full status table.
        """
        lost = 0
        owned = self._owned.pop(worker_id, None)
        if not owned:
            return 0
        for shuffle_id, map_id in sorted(owned):
            statuses = self._outputs.get(shuffle_id)
            if statuses is None:
                continue
            status = statuses.get(map_id)
            if status is not None and status.worker_id == worker_id:
                del statuses[map_id]
                self._invalidate_plan(shuffle_id)
                self._total_bytes[shuffle_id] = (
                    self._total_bytes.get(shuffle_id, 0) - status.total_bytes
                )
                self._mark_lost(shuffle_id, map_id)
                lost += 1
        return lost

    def output_bytes(self, dep: ShuffleDependency) -> int:
        """Total bytes currently registered for a shuffle (O(1), maintained)."""
        return self._total_bytes.get(dep.shuffle_id, 0)

    def output_bytes_by_scan(self, dep: ShuffleDependency) -> int:
        """Reference O(maps) implementation of :meth:`output_bytes`.

        The equivalence tests hold the maintained counter to exactly its
        answers.
        """
        return sum(s.total_bytes for s in self._outputs.get(dep.shuffle_id, {}).values())

    # ------------------------------------------------------------------
    # Truth accessors for the fault-injection invariant checker
    # ------------------------------------------------------------------
    def tracked_shuffles(self) -> List[Tuple[int, int]]:
        """``(shuffle_id, num_map_partitions)`` for every tracked shuffle."""
        return sorted((sid, self._num_maps[sid]) for sid in self._missing)

    def missing_set(self, shuffle_id: int) -> Set[int]:
        """Copy of the maintained missing-map set for one shuffle."""
        return set(self._missing.get(shuffle_id, ()))

    def serving_workers(self, shuffle_id: int) -> List[str]:
        """Ids of live workers currently holding this shuffle's map outputs."""
        out = set()
        for status in self._outputs.get(shuffle_id, {}).values():
            worker = self._workers.get(status.worker_id)
            if worker is not None and worker.alive:
                out.add(status.worker_id)
        return sorted(out)
