"""Open-loop saturation load generator: thousands of seeded clients.

The ROADMAP's "millions of users" question for the job server is not "does
one analyst get low latency next to a batch job" (Fig 9 answers that) but
"where does the front door *saturate*, and how does it fail past that
point".  The classic methodology (open-loop load, as in the Flink/Spark
cloud benchmarking literature) drives Poisson arrivals at a fixed offered
rate — blind to completions, so queues grow without bound when the system
falls behind — and reads the knee off the throughput-vs-p95 curve.

:func:`run_load_point` builds a fresh deterministic universe, spawns
``num_clients`` seeded :class:`~repro.server.clients.OpenLoopClient`\\ s
against one interactive pool, and drives the event loop to completion.  The
pool's concurrency cap is what makes thousands of clients *simulable*: an
admitted query executes inline inside its arrival frame, so uncapped
overload would nest Python frames one per concurrent query — capped, excess
arrivals queue and run in the server's non-recursive drain loop instead
(bounded stack at any load).  :func:`saturation_curve` sweeps offered rates
and returns one :class:`LoadPoint` per rate; everything is bit-deterministic
under ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.obs.metrics import percentile
from repro.server.clients import OpenLoopClient
from repro.server.jobserver import JobServer, PoolConfig, ServerConfig
from repro.server.tenancy import TenancyConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import FlintContext


@dataclass
class LoadPoint:
    """One point on the saturation curve, all in simulated units."""

    offered_rps: float
    clients: int
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    throttled: int = 0
    #: Achieved goodput: completions per simulated second of makespan.
    throughput_rps: float = 0.0
    p50_response: Optional[float] = None
    p95_response: Optional[float] = None
    p99_response: Optional[float] = None
    max_response: Optional[float] = None
    queued_peak: int = 0
    sim_makespan: float = 0.0
    scheduler_stats: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "offered_rps": self.offered_rps,
            "clients": self.clients,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "throttled": self.throttled,
            "throughput_rps": self.throughput_rps,
            "p50_response": self.p50_response,
            "p95_response": self.p95_response,
            "p99_response": self.p99_response,
            "max_response": self.max_response,
            "queued_peak": self.queued_peak,
            "sim_makespan": self.sim_makespan,
        }


def _default_query(ctx: "FlintContext"):
    """A small shared interactive query: count over one cached partition."""
    rdd = ctx.parallelize(list(range(64)), 1, record_size=100_000)
    rdd.persist()
    rdd.count()  # materialise once so every query reads the shared cache
    return rdd.count


def run_load_point(
    offered_rps: float,
    num_clients: int = 1000,
    queries_per_client: int = 1,
    num_workers: int = 4,
    seed: int = 7,
    pool_cap: int = 8,
    max_queue: int = 512,
    tenancy: Optional[TenancyConfig] = None,
    query_factory=None,
) -> LoadPoint:
    """Drive one offered rate to completion; returns its :class:`LoadPoint`.

    ``offered_rps`` is the *aggregate* arrival rate: each client draws
    Poisson arrivals at ``offered_rps / num_clients``.  The run ends when
    every client has issued its queries and every record is done (the
    open-loop tail drains through the capped pool's queue).
    """
    from repro.analysis.experiments import build_engine_context

    if offered_rps <= 0:
        raise ValueError("offered_rps must be positive")
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    ctx = build_engine_context(num_workers=num_workers, seed=seed)
    server = JobServer(ctx, ServerConfig(
        scheduling_policy="fair",
        max_queue=max_queue,
        pools=(
            PoolConfig("interactive", policy="fifo", weight=1.0,
                       priority="interactive", max_concurrent=pool_cap),
        ),
        tenancy=tenancy,
    ))
    query = (query_factory or _default_query)(ctx)
    per_client_rate = offered_rps / num_clients
    clients = [
        OpenLoopClient(
            server, query, rate=per_client_rate, pool="interactive",
            name=f"lg-{i}", max_queries=queries_per_client, master_seed=seed,
        )
        for i in range(num_clients)
    ]
    for client in clients:
        client.start()
    expected = num_clients * queries_per_client

    def settled() -> bool:
        stats = server.stats
        finished = stats.completed + stats.failed + stats.rejected
        return stats.submitted >= expected and finished >= stats.submitted

    ctx.scheduler.pump(settled, "load generator")

    responses = [r.response for r in server.records
                 if r.response is not None and r.ok]
    finished_times = [r.finished_at for r in server.records
                      if r.finished_at is not None]
    makespan = max(finished_times) if finished_times else 0.0
    stats = server.stats
    import dataclasses

    return LoadPoint(
        offered_rps=offered_rps,
        clients=num_clients,
        submitted=stats.submitted,
        completed=stats.completed,
        rejected=stats.rejected,
        throttled=stats.throttled,
        throughput_rps=(
            round(stats.completed / makespan, 6) if makespan else 0.0
        ),
        p50_response=percentile(responses, 0.50),
        p95_response=percentile(responses, 0.95),
        p99_response=percentile(responses, 0.99),
        max_response=max(responses) if responses else None,
        queued_peak=stats.queued_peak,
        sim_makespan=round(makespan, 6),
        scheduler_stats=dataclasses.asdict(ctx.scheduler.stats),
    )


def saturation_curve(
    offered_rates: Sequence[float],
    num_clients: int = 1000,
    queries_per_client: int = 1,
    num_workers: int = 4,
    seed: int = 7,
    pool_cap: int = 8,
    max_queue: int = 512,
    tenancy: Optional[TenancyConfig] = None,
) -> List[LoadPoint]:
    """One :class:`LoadPoint` per offered rate (fresh universe per point)."""
    if len(offered_rates) < 1:
        raise ValueError("at least one offered rate is required")
    return [
        run_load_point(
            rate,
            num_clients=num_clients,
            queries_per_client=queries_per_client,
            num_workers=num_workers,
            seed=seed,
            pool_cap=pool_cap,
            max_queue=max_queue,
            tenancy=tenancy,
        )
        for rate in offered_rates
    ]
