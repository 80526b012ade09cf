"""The canonical multi-tenant serving scenario, shared by CLI and benchmarks.

One cluster serves two tenants at once: a closed-loop analyst issuing short
TPC-H Q3 queries into an ``interactive`` pool, and a PageRank batch program
streaming iteration jobs through a ``batch`` pool.  The batch stages are
oversubscribed (many more partitions than slots) so the policies separate:
under FIFO the analyst's queries sit behind the in-flight batch job's ready
tasks until its stage barrier; under fair sharing the interactive pool's
priority gets them slots as soon as running tasks retire.

The hardened-server features are all optional and off by default (the
policy-comparison numbers stay bit-identical to the un-hardened server):
``tenancy`` switches on per-tenant quotas/rate limits/breakers (each analyst
is its own tenant), ``retry`` gives analysts seeded backoff-retry on
rejection, ``journal_path`` journals every query lifecycle to JSONL, and
``result_cache`` fingerprints the Q3 lineage so identical analyst queries
across sessions share one result.

Everything is deterministic in ``seed`` — table sizes, think times, and the
optional mid-stream revocation — so two runs differing only in policy are
directly comparable, and repeated runs are diffable.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Optional

from repro.analysis.experiments import build_engine_context
from repro.server.clients import ClosedLoopClient
from repro.server.jobserver import JobServer, PoolConfig, ServerConfig
from repro.server.result_cache import ResultCache, lineage_fingerprint
from repro.server.tenancy import RetryPolicy, TenancyConfig
from repro.workloads import PageRankWorkload, TPCHSession

#: Simulated second at which the optional revocation fires (mid-batch).
REVOKE_AT = 100.0
REPLACEMENT_DELAY = 120.0


def run_multitenant(
    policy: str = "fair",
    num_workers: int = 10,
    seed: int = 1234,
    queries: int = 16,
    think_time: float = 15.0,
    revoke: bool = False,
    max_queue: int = 16,
    interactive_cap: Optional[int] = None,
    batch_iterations: int = 3,
    clients: int = 1,
    tenancy: Optional[TenancyConfig] = None,
    retry: Optional[RetryPolicy] = None,
    journal_path: Optional[str] = None,
    result_cache: bool = False,
    validate_cache: bool = False,
    context_hook: Optional[Callable[[Any], None]] = None,
) -> Dict[str, Any]:
    """Run the scenario under one policy; returns the server's SLO report.

    The batch program runs via the server's blocking ``run_query``;
    analyst queries arrive as events and execute inside callbacks,
    multiplexed against the batch tasks.  After the batch job finishes, the
    scheduler's drive loop keeps stepping until the analysts are done too.

    ``context_hook`` (if given) receives the freshly built context before
    anything runs — the tracing CLI uses it to capture the context and
    install an invariant checker whose listeners must observe the whole run.
    """
    ctx = build_engine_context(num_workers=num_workers, seed=seed)
    if context_hook is not None:
        context_hook(ctx)
    server = JobServer(ctx, ServerConfig(
        scheduling_policy=policy,
        max_queue=max_queue,
        pools=(
            PoolConfig("interactive", policy="fifo", weight=4.0,
                       priority="interactive", max_concurrent=interactive_cap),
            PoolConfig("batch", policy="fifo", weight=1.0, priority="batch"),
        ),
        tenancy=tenancy,
        journal_path=journal_path,
        result_cache=(
            ResultCache(validate=validate_cache) if result_cache else None
        ),
    ))
    session = TPCHSession(
        ctx, data_gb=2.0, lineitem_rows=6_000, orders_rows=1_500,
        customer_rows=400, partitions=2 * num_workers, seed=seed,
    )
    session.load()
    shared = server.create_session("tpch")
    shared.put("lineitem", session.lineitem)
    shared.put("orders", session.orders)
    shared.put("customer", session.customer)

    q3_key = (
        lineage_fingerprint(session.q3_plan(), action="collect",
                            params=("q3-top10",))
        if result_cache
        else None
    )
    pagerank = PageRankWorkload(
        ctx, data_gb=8.0, num_edges=96_000, num_vertices=96_000 // 5,
        partitions=48 * num_workers, iterations=batch_iterations, seed=seed,
    )
    analysts = [
        ClosedLoopClient(
            server, session.q3, pool="interactive", name=f"analyst-{i}",
            think_time=think_time, max_queries=queries, master_seed=seed,
            tenant=f"analyst-{i}" if tenancy is not None else None,
            cache_key=q3_key, retry_policy=retry,
        )
        for i in range(clients)
    ]
    for i, analyst in enumerate(analysts):
        analyst.start(delay=5.0 + i)

    if revoke:
        def _revoke(_event):
            victims = ctx.cluster.live_workers()[:1]
            if victims:
                market = victims[0].instance.market_id
                ctx.cluster.force_revoke(victims)
                ctx.cluster.launch(market, bid=0.175, count=len(victims),
                                   delay=REPLACEMENT_DELAY)
        ctx.env.schedule_at(REVOKE_AT, "revocation", callback=_revoke)

    server.run_query(pagerank.run, pool="batch", name="pagerank",
                     tenant="batch" if tenancy is not None else None)
    ctx.scheduler.pump(lambda: all(a.finished for a in analysts), "multi-tenant analysts")

    report = server.slo_report()
    report["revocations"] = len(ctx.cluster.revocation_log)
    report["session"] = shared.describe()
    report["scheduler_stats"] = dataclasses.asdict(ctx.scheduler.stats)
    report["client_retries"] = sum(a.retries for a in analysts)
    server.close()
    return report
