"""The multi-tenant job server: admission control + SLO accounting.

``JobServer`` fronts one :class:`~repro.engine.context.FlintContext` for many
clients.  Each *query* is a callable that runs RDD actions (a TPC-H query, a
batch step); the server routes it into a scheduler pool, enforces admission
control, and records per-query SLO metrics (queue delay, response time) in
simulated seconds.

The admission path, in order, for every submitted query:

1. **Circuit breaker** — a tenant whose queries keep failing is shed
   outright (closed → open → half-open on the simulated clock).
2. **Quota** — per-tenant bound on queued+running queries.
3. **Rate limit** — per-tenant token bucket; arrivals beyond the refill
   rate are throttled.
4. **Result cache** — a query carrying a lineage-fingerprint cache key
   returns the shared result instantly on a hit (no pool slot, no tasks).
5. **Pool cap + bounded queue** — the per-pool concurrency cap backed by
   one bounded FIFO queue; arrivals beyond the bound are shed.

Tenancy (1–3) is per-tenant state configured by
:class:`~repro.server.tenancy.TenancyConfig`; the tenant defaults to the
pool name so untagged workloads degrade to per-pool isolation.  Every
lifecycle transition can be journalled (:class:`~repro.server.journal
.JobJournal`) so a restarted server resumes admitted-but-unfinished work
via :meth:`JobServer.resume`.

Execution model: this is a discrete-event simulation on one thread, so a
query "runs concurrently" by executing inside an event callback while other
jobs are mid-flight — the scheduler multiplexes their tasks.  ``submit_query``
therefore executes an admitted query *inline* (blocking in simulated time)
and returns its finished record; a capped-out query is queued and later runs
inside the completion frame that frees the slot.  ``run_query`` is the
blocking surface for top-level drivers: it additionally drives
``TaskScheduler.pump`` until a queued query finishes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.engine.pools import DEFAULT_POOL
from repro.obs import SpanEvent
from repro.obs.metrics import percentile
from repro.server.journal import JobJournal
from repro.server.result_cache import ResultCache
from repro.server.session import Session
from repro.server.tenancy import TenancyConfig, TenantState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import FlintContext


@dataclass(frozen=True)
class PoolConfig:
    """Static configuration for one scheduler pool as seen by the server."""

    name: str
    policy: str = "fifo"
    weight: float = 1.0
    priority: str = "batch"
    #: Queries of this pool running at once; None = unlimited (the
    #: scheduler's fair sharing is then the only throttle).
    max_concurrent: Optional[int] = None


@dataclass(frozen=True)
class ServerConfig:
    """Server-wide configuration."""

    #: Root policy for sharing slots between concurrent jobs.
    scheduling_policy: str = "fair"
    #: Bound on queries waiting for a pool slot; arrivals beyond it are
    #: rejected (load shedding, never unbounded latency).
    max_queue: int = 16
    pools: Tuple[PoolConfig, ...] = ()
    #: Per-tenant quotas / rate limits / circuit breakers; None disables
    #: the tenancy layer entirely (the admission path is then pool-only).
    tenancy: Optional[TenancyConfig] = None
    #: JSONL job-state journal path; None disables journalling.
    journal_path: Optional[str] = None
    #: Shared lineage-fingerprint result cache; None disables it.  Queries
    #: opt in per submission via ``cache_key``.
    result_cache: Optional[ResultCache] = None


class JobRejected(RuntimeError):
    """Admission control turned a query away (queue full, quota, breaker)."""

    def __init__(self, pool: str, reason: str):
        super().__init__(f"query rejected from pool {pool!r}: {reason}")
        self.pool = pool
        self.reason = reason


@dataclass
class QueryRecord:
    """Lifecycle and SLO record of one submitted query."""

    name: str
    pool: str
    arrived_at: float
    tenant: Optional[str] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    ok: bool = False
    rejected: bool = False
    #: Set when rejection happened: "queue-full", "quota", "throttled",
    #: or "circuit-open".
    reject_reason: Optional[str] = None
    #: True when the result came from the shared result cache.
    cached: bool = False
    cache_key: Optional[str] = None
    done: bool = False
    error: Optional[BaseException] = None
    result: Any = None
    on_complete: Optional[Callable[["QueryRecord"], None]] = None

    @property
    def queue_delay(self) -> Optional[float]:
        """Simulated seconds spent waiting for admission."""
        if self.started_at is None:
            return None
        return self.started_at - self.arrived_at

    @property
    def response(self) -> Optional[float]:
        """Simulated seconds from arrival to completion (the SLO metric)."""
        if self.finished_at is None or self.rejected:
            return None
        return self.finished_at - self.arrived_at


@dataclass
class ServerStats:
    """Aggregate admission/completion counters."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    throttled: int = 0
    cache_hits: int = 0
    queued_peak: int = 0
    rejected_by_pool: Dict[str, int] = field(default_factory=dict)
    rejected_by_reason: Dict[str, int] = field(default_factory=dict)


class JobServer:
    """Serves concurrent queries over one engine context."""

    def __init__(self, context: "FlintContext", config: Optional[ServerConfig] = None):
        self.context = context
        self.scheduler = context.scheduler
        self.config = config or ServerConfig()
        self.scheduler.set_scheduling_policy(self.config.scheduling_policy)
        self._caps: Dict[str, Optional[int]] = {}
        self._active: Dict[str, int] = {}
        self._queue: Deque[Tuple[QueryRecord, Callable[[], Any]]] = deque()
        self._draining = False
        self.records: List[QueryRecord] = []
        self.stats = ServerStats()
        self.sessions: Dict[str, Session] = {}
        self.tenants: Dict[str, TenantState] = {}
        self.result_cache = self.config.result_cache
        self.journal: Optional[JobJournal] = (
            JobJournal(self.config.journal_path)
            if self.config.journal_path is not None
            else None
        )
        for pool_config in self.config.pools:
            self.add_pool(pool_config)

    # ------------------------------------------------------------------
    # Pools, sessions, tenants
    # ------------------------------------------------------------------
    def add_pool(self, pool_config: PoolConfig) -> None:
        self.scheduler.add_pool(
            pool_config.name,
            policy=pool_config.policy,
            weight=pool_config.weight,
            priority=pool_config.priority,
        )
        self._caps[pool_config.name] = pool_config.max_concurrent

    def create_session(self, name: str) -> Session:
        """A named session of shared cached RDDs (one per name)."""
        session = self.sessions.get(name)
        if session is None or session.closed:
            session = Session(name, self.context)
            self.sessions[name] = session
        return session

    def tenant_state(self, tenant: str) -> Optional[TenantState]:
        """The live tenancy record for ``tenant`` (None with tenancy off)."""
        if self.config.tenancy is None:
            return None
        state = self.tenants.get(tenant)
        if state is None:
            state = TenantState(
                tenant, self.config.tenancy.policy_for(tenant), self.context.now
            )
            self.tenants[tenant] = state
        return state

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def submit_query(
        self,
        fn: Callable[[], Any],
        pool: str = DEFAULT_POOL,
        name: Optional[str] = None,
        tenant: Optional[str] = None,
        on_complete: Optional[Callable[[QueryRecord], None]] = None,
        cache_key: Optional[str] = None,
    ) -> QueryRecord:
        """Admit and run (or queue, or reject) one query.

        Admitted queries execute inline — the record returned is finished.
        Queued records finish later, inside the frame that frees their pool
        slot; rejected records return immediately with ``rejected`` set and
        ``reject_reason`` naming the admission stage that shed them.
        ``on_complete`` fires exactly once in every case.  ``tenant``
        defaults to the pool name, so untagged traffic falls back to
        per-pool isolation.
        """
        self.scheduler.get_pool(pool)
        record = QueryRecord(
            name=name or f"query-{len(self.records)}",
            pool=pool,
            tenant=tenant or pool,
            arrived_at=self.context.now,
            cache_key=cache_key,
            on_complete=on_complete,
        )
        self.records.append(record)
        self.stats.submitted += 1
        state = self.tenant_state(record.tenant)
        if state is not None:
            state.submitted += 1
            now = self.context.now
            if state.breaker is not None and not state.breaker.allow(now):
                return self._reject(record, "circuit-open", state)
            policy = state.policy
            if (
                policy.max_in_flight is not None
                and state.in_flight >= policy.max_in_flight
            ):
                return self._reject(record, "quota", state)
            if state.bucket is not None and not state.bucket.try_take(now):
                self.stats.throttled += 1
                return self._reject(record, "throttled", state)
        if cache_key is not None and self.result_cache is not None:
            hit, value = self.result_cache.lookup(cache_key)
            if hit:
                return self._complete_from_cache(record, fn, value, state)
        if state is not None:
            state.admitted += 1
            state.in_flight += 1
        cap = self._caps.get(pool)
        if cap is not None and self._active.get(pool, 0) >= cap:
            if len(self._queue) >= self.config.max_queue:
                if state is not None:
                    # Undo the admission accounting; the query never ran.
                    state.admitted -= 1
                    state.in_flight -= 1
                return self._reject(record, "queue-full", state)
            self._queue.append((record, fn))
            if len(self._queue) > self.stats.queued_peak:
                self.stats.queued_peak = len(self._queue)
            self._journal("submitted", record, queued=True)
            return record
        self._journal("submitted", record)
        self._execute(record, fn)
        return record

    def run_query(
        self,
        fn: Callable[[], Any],
        pool: str = DEFAULT_POOL,
        name: Optional[str] = None,
        tenant: Optional[str] = None,
        cache_key: Optional[str] = None,
    ) -> Any:
        """Blocking surface for top-level drivers: submit, drive, return.

        Raises:
            JobRejected: when admission control sheds the query.
            EngineError: when a queued query can never run (no events left),
                or the query itself failed.
        """
        record = self.submit_query(
            fn, pool=pool, name=name, tenant=tenant, cache_key=cache_key
        )
        if record.rejected:
            raise JobRejected(pool, record.reject_reason or "admission rejected")
        self.scheduler.pump(lambda: record.done, f"query {record.name!r}")
        if record.error is not None:
            raise record.error
        return record.result

    # ------------------------------------------------------------------
    # Admission outcomes
    # ------------------------------------------------------------------
    def _reject(
        self, record: QueryRecord, reason: str, state: Optional[TenantState]
    ) -> QueryRecord:
        record.rejected = True
        record.reject_reason = reason
        record.done = True
        record.finished_at = self.context.now
        self.stats.rejected += 1
        self.stats.rejected_by_pool[record.pool] = (
            self.stats.rejected_by_pool.get(record.pool, 0) + 1
        )
        self.stats.rejected_by_reason[reason] = (
            self.stats.rejected_by_reason.get(reason, 0) + 1
        )
        if state is not None:
            state.note_rejection(reason)
        obs = self.context.obs
        if obs.enabled:
            obs.bus.emit(SpanEvent(
                kind="query", name=record.name, start=record.arrived_at,
                pool=record.pool, status="rejected",
                attrs={"reason": reason, "tenant": record.tenant},
            ))
        self._journal("rejected", record, reason=reason)
        self._fire_on_complete(record)
        return record

    def _complete_from_cache(
        self,
        record: QueryRecord,
        fn: Callable[[], Any],
        value: Any,
        state: Optional[TenantState],
    ) -> QueryRecord:
        """Finish a query instantly from the shared result cache.

        A hit consumes no pool slot and no simulated time — unless the
        cache runs in ``validate`` mode, where the query recomputes anyway
        (spending its normal latency) and the hit is invariant-checked
        against the fresh result.
        """
        assert self.result_cache is not None
        record.started_at = record.arrived_at
        if self.result_cache.validate:
            self.result_cache.check(record.cache_key, value, fn())
        record.result = value
        record.cached = True
        record.ok = True
        record.done = True
        record.finished_at = self.context.now
        self.stats.completed += 1
        self.stats.cache_hits += 1
        if state is not None:
            state.admitted += 1
            state.completed += 1
            state.cache_hits += 1
            if state.breaker is not None:
                state.breaker.record_success(self.context.now)
        obs = self.context.obs
        if obs.enabled:
            obs.bus.emit(SpanEvent(
                kind="query", name=record.name, start=record.arrived_at,
                end=record.finished_at, pool=record.pool, status="cached",
                attrs={"tenant": record.tenant},
            ))
        self._journal("submitted", record)
        self._journal("finished", record, ok=True, cached=True,
                      result=repr(record.result))
        self._fire_on_complete(record)
        return record

    # ------------------------------------------------------------------
    # Execution core
    # ------------------------------------------------------------------
    def _execute(self, record: QueryRecord, fn: Callable[[], Any]) -> None:
        pool = record.pool
        self._active[pool] = self._active.get(pool, 0) + 1
        record.started_at = self.context.now
        self._journal("started", record)
        try:
            with self.context.job_pool(pool):
                try:
                    record.result = fn()
                    record.ok = True
                    self.stats.completed += 1
                except Exception as exc:
                    # Catch *everything* a query can raise, not just
                    # EngineError: an escaping KeyError used to leave the
                    # record done=True with error=None and the failure
                    # uncounted, so slo_report disagreed with reality.
                    # BaseException (KeyboardInterrupt, SystemExit) still
                    # propagates — those tear the whole simulation down.
                    record.error = exc
                    self.stats.failed += 1
        finally:
            record.finished_at = self.context.now
            record.done = True
            self._active[pool] -= 1
            state = self.tenant_state(record.tenant) if record.tenant else None
            if state is not None:
                state.in_flight -= 1
                if record.ok:
                    state.completed += 1
                    if state.breaker is not None:
                        state.breaker.record_success(self.context.now)
                else:
                    state.failed += 1
                    if state.breaker is not None:
                        state.breaker.record_failure(self.context.now)
            if (
                record.ok
                and record.cache_key is not None
                and self.result_cache is not None
            ):
                self.result_cache.put(record.cache_key, record.result)
            obs = self.context.obs
            if obs.enabled:
                obs.bus.emit(SpanEvent(
                    kind="query",
                    name=record.name,
                    start=record.arrived_at,
                    end=record.finished_at,
                    pool=pool,
                    status="complete" if record.ok else "failed",
                    attrs={"queue_delay": record.queue_delay,
                           "tenant": record.tenant},
                ))
            self._journal(
                "finished", record, ok=record.ok,
                error=(f"{type(record.error).__name__}: {record.error}"
                       if record.error is not None else None),
                result=repr(record.result) if record.ok else None,
            )
            self._fire_on_complete(record)
            self._drain()

    def _fire_on_complete(self, record: QueryRecord) -> None:
        callback = record.on_complete
        if callback is not None:
            record.on_complete = None
            callback(record)

    def _drain(self) -> None:
        """Run queued queries whose pools regained capacity (FIFO per pool).

        One non-recursive work loop: the guard stays on for the *entire*
        drain, including around each nested ``_execute`` — so when a
        drained query's own epilogue calls ``_drain`` again, that inner
        call returns immediately and the outer loop rescans the queue.
        (The old implementation switched the guard off around ``_execute``,
        which made every drained completion re-enter ``_drain`` recursively:
        a deep queue burned one Python stack frame per queued query.)
        """
        if self._draining:
            return
        self._draining = True
        try:
            progressed = True
            while progressed:
                progressed = False
                for i, (record, fn) in enumerate(self._queue):
                    cap = self._caps.get(record.pool)
                    if cap is None or self._active.get(record.pool, 0) < cap:
                        del self._queue[i]
                        self._execute(record, fn)
                        progressed = True
                        break
        finally:
            self._draining = False

    # ------------------------------------------------------------------
    # Restart / recovery
    # ------------------------------------------------------------------
    def resume(
        self, registry: Mapping[str, Callable[[], Any]]
    ) -> List[QueryRecord]:
        """Re-submit every journalled query that never finished.

        Reads this server's own journal (``config.journal_path``), finds
        queries that were admitted but have no ``finished``/``rejected``
        event — the in-flight and queued work a crashed server dropped —
        and resubmits them in original submission order through the full
        admission path.  ``registry`` maps query names to callables (query
        bodies cannot be serialised; the restarting process re-registers
        them, like prepared statements).  Names missing from the registry
        are skipped and reported by returning no record for them.
        """
        from repro.server.journal import pending_queries

        if self.config.journal_path is None:
            raise RuntimeError("resume() requires a configured journal_path")
        resumed: List[QueryRecord] = []
        for entry in pending_queries(self.config.journal_path):
            fn = registry.get(entry.name)
            if fn is None:
                continue
            resumed.append(self.submit_query(
                fn,
                pool=entry.pool,
                name=entry.name,
                tenant=entry.tenant,
                cache_key=entry.cache_key,
            ))
        return resumed

    def _journal(self, event: str, record: QueryRecord, **fields: Any) -> None:
        if self.journal is None:
            return
        self.journal.record(
            event,
            name=record.name,
            pool=record.pool,
            tenant=record.tenant,
            cache_key=record.cache_key,
            t=self.context.now,
            **fields,
        )

    def close(self) -> None:
        """Flush and close the journal (idempotent)."""
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------
    # Driving and reporting
    # ------------------------------------------------------------------
    def drive_until(self, t: float) -> int:
        """Advance simulated time (client arrivals fire as they come due)."""
        return self.context.env.run_until(t)

    def queued(self) -> int:
        return len(self._queue)

    def active(self, pool: Optional[str] = None) -> int:
        if pool is not None:
            return self._active.get(pool, 0)
        return sum(self._active.values())

    def tenant_report(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant admission/rejection/breaker summary (tenancy on)."""
        return {
            name: state.describe() for name, state in sorted(self.tenants.items())
        }

    def slo_report(self) -> Dict[str, Any]:
        """Per-pool and overall SLO summary in simulated seconds."""
        report: Dict[str, Any] = {
            "scheduling_policy": self.scheduler.scheduling_policy,
            "submitted": self.stats.submitted,
            "completed": self.stats.completed,
            "failed": self.stats.failed,
            "rejected": self.stats.rejected,
            "queued_peak": self.stats.queued_peak,
            "pools": {},
        }
        if self.stats.rejected_by_reason:
            report["rejected_by_reason"] = dict(
                sorted(self.stats.rejected_by_reason.items())
            )
        if self.config.tenancy is not None:
            report["tenants"] = self.tenant_report()
        if self.result_cache is not None:
            report["result_cache"] = self.result_cache.describe()
        by_pool: Dict[str, List[QueryRecord]] = {}
        for record in self.records:
            by_pool.setdefault(record.pool, []).append(record)
        for pool, records in sorted(by_pool.items()):
            responses = [r.response for r in records if r.response is not None and r.ok]
            delays = [r.queue_delay for r in records if r.queue_delay is not None]
            report["pools"][pool] = {
                "queries": len(records),
                "completed": sum(1 for r in records if r.ok),
                "failed": sum(1 for r in records if r.error is not None),
                "rejected": sum(1 for r in records if r.rejected),
                "cached": sum(1 for r in records if r.cached),
                "p50_response": percentile(responses, 0.50),
                "p95_response": percentile(responses, 0.95),
                "p99_response": percentile(responses, 0.99),
                "max_response": max(responses) if responses else None,
                "mean_queue_delay": (
                    sum(delays) / len(delays) if delays else None
                ),
            }
        return report
