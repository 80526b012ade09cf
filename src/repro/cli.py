"""Command-line interface to the Flint managed service (§4).

The paper's users "interact with Flint via the command-line to submit,
monitor, and interact with their Spark programs".  This module is that
surface for the reproduction:

    python -m repro.cli markets                 # what the node manager sees
    python -m repro.cli select --mode batch     # dry-run server selection
    python -m repro.cli run --workload pagerank # run a workload under Flint
    python -m repro.cli canonical --selector flint-batch --runs 20

Every subcommand builds its own deterministic universe from ``--seed``, so
runs are reproducible and safe to diff.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.longrun import (
    CanonicalConfig,
    CanonicalSimulator,
    flint_batch_selector,
    on_demand_selector,
    spot_fleet_selector,
)
from repro.analysis.tables import format_table
from repro.core.config import FlintConfig, Mode
from repro.core.flint import Flint
from repro.core.selection import (
    BatchSelectionPolicy,
    InteractiveSelectionPolicy,
    market_correlation_fn,
    snapshot_markets,
)
from repro.factory import standard_provider
from repro.simulation.clock import HOUR


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="universe seed")


def _add_streaming(parser: argparse.ArgumentParser) -> None:
    """Micro-batch flags for subcommands that can run the streaming plane."""
    parser.add_argument("--batch-interval", type=float, default=30.0,
                        help="streaming: simulated seconds between micro-batches")
    parser.add_argument("--window", type=int, default=1,
                        help="streaming: window size in batches (>1 runs the "
                             "windowed aggregation instead of stateful wordcount)")
    parser.add_argument("--slide", type=int, default=None,
                        help="streaming: window slide in batches (default: window)")
    parser.add_argument("--batches", type=int, default=8,
                        help="streaming: how many micro-batches to run")


def _build_streaming_workload(ctx, args: argparse.Namespace, partitions: int):
    """The CLI's streaming scenario: windowed aggregation when ``--window``
    exceeds one batch, τ-checkpointed stateful wordcount otherwise."""
    from repro.streaming import StreamingWindowWorkload, StreamingWordCountWorkload

    if args.window > 1:
        return StreamingWindowWorkload(
            ctx,
            partitions=partitions,
            num_batches=args.batches,
            window=args.window,
            slide=args.slide,
            batch_interval=args.batch_interval,
        )
    return StreamingWordCountWorkload(
        ctx,
        partitions=partitions,
        num_batches=args.batches,
        batch_interval=args.batch_interval,
        checkpointing=True,
        initial_delta=20.0,
        max_tau=2 * args.batch_interval,
    )


def _print_streaming_summary(workload) -> None:
    import statistics

    ssc = workload.ssc
    latencies = ssc.latencies()
    print(
        f"batches: {len(ssc.batches)}  "
        f"median batch latency: {statistics.median(latencies):.2f}s  "
        f"sustained: {ssc.sustained_records_per_second():.0f} records/s"
    )
    if ssc.policy is not None:
        print(f"state checkpoints: {ssc.policy.stats.marks} "
              f"(tau={ssc.policy.tau:.0f}s)")


def cmd_markets(args: argparse.Namespace) -> int:
    """Print the spot universe as the node manager snapshots it."""
    provider = standard_provider(seed=args.seed)
    snaps = snapshot_markets(provider, t=0.0)
    rows = []
    for s in sorted(snaps, key=lambda s: s.mean_price):
        mttf = "inf" if s.mttf == float("inf") else f"{s.mttf / HOUR:.0f}h"
        rows.append(
            [s.market_id, s.current_price, s.mean_price, mttf,
             "SPIKING" if s.price_is_spiking else ""]
        )
    print(format_table(
        ["market", "current $/h", "mean $/h", "MTTF", "state"],
        rows, title=f"spot universe (seed={args.seed})", float_fmt="{:.4f}",
    ))
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    """Dry-run the batch or interactive selection policy."""
    provider = standard_provider(seed=args.seed)
    snaps = snapshot_markets(provider, t=0.0)
    if args.mode == "batch":
        result = BatchSelectionPolicy(T_estimate=args.hours * HOUR).select(snaps)
    else:
        correlation = market_correlation_fn(provider, 0.0)
        result = InteractiveSelectionPolicy(T_estimate=args.hours * HOUR).select(
            snaps, correlation
        )
    print(f"mode: {args.mode}")
    print(f"markets: {', '.join(result.market_ids)}")
    print(f"expected runtime: {result.expected_runtime:.0f}s")
    print(f"expected cost/server: ${result.expected_cost_per_server:.4f}")
    print(f"expected runtime variance: {result.expected_variance:.1f}s^2")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run one of the paper's workloads under a Flint cluster."""
    from repro.workloads import (
        ALSWorkload,
        KMeansWorkload,
        PageRankWorkload,
        TPCHSession,
    )

    provider = standard_provider(seed=args.seed)
    mode = Mode.INTERACTIVE if args.mode == "interactive" else Mode.BATCH
    flint = Flint(
        provider,
        FlintConfig(cluster_size=args.nodes, mode=mode, T_estimate=args.hours * HOUR),
        seed=args.seed,
    )
    flint.start()
    print(f"cluster: {flint.cluster.markets_in_use()}")
    ctx = flint.context
    if args.workload == "pagerank":
        workload = PageRankWorkload(ctx, partitions=2 * args.nodes)
        report = flint.run(lambda _ctx: workload.run(), name="pagerank")
    elif args.workload == "kmeans":
        workload = KMeansWorkload(ctx, partitions=2 * args.nodes)
        report = flint.run(lambda _ctx: workload.run(), name="kmeans")
    elif args.workload == "als":
        workload = ALSWorkload(ctx, partitions=2 * args.nodes)
        report = flint.run(lambda _ctx: workload.run(), name="als")
    elif args.workload == "streaming":
        workload = _build_streaming_workload(ctx, args, partitions=2 * args.nodes)
        report = flint.run(lambda _ctx: workload.run(), name="streaming")
    else:  # tpch
        session = TPCHSession(ctx, partitions=2 * args.nodes)
        session.load()
        report = flint.run(lambda _ctx: (session.q1(), session.q3(), session.q6()),
                           name="tpch")
    print(f"runtime: {report.runtime:.1f}s (simulated)")
    print(f"revocations during run: {report.revocations}")
    if args.workload == "streaming":
        _print_streaming_summary(workload)
    summary = flint.cost_summary()
    print(f"cost: ${summary['total_cost']:.4f} "
          f"(instances ${summary['instance_cost']:.4f} "
          f"+ EBS ${summary['ebs_cost']:.4f})")
    flint.shutdown()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant serving scenario and print its SLO summary.

    Exits nonzero when any query failed or was shed by admission control, so
    scripted runs can gate on serving health.
    """
    from repro.server.scenario import run_multitenant
    from repro.server.tenancy import RetryPolicy, TenancyConfig, TenantPolicy

    tenancy = None
    if (args.tenant_quota is not None or args.tenant_rate is not None
            or args.breaker_threshold is not None):
        tenancy = TenancyConfig(default=TenantPolicy(
            max_in_flight=args.tenant_quota,
            rate=args.tenant_rate,
            burst=args.tenant_burst,
            breaker_threshold=args.breaker_threshold,
            breaker_reset=args.breaker_reset,
        ))
    retry = (
        RetryPolicy(max_attempts=args.retry_attempts)
        if args.retry_attempts else None
    )
    report = run_multitenant(
        policy=args.policy,
        num_workers=args.workers,
        seed=args.seed,
        queries=args.queries,
        think_time=args.think_time,
        revoke=args.revoke,
        max_queue=args.queue_cap,
        interactive_cap=args.interactive_cap,
        clients=args.clients,
        tenancy=tenancy,
        retry=retry,
        journal_path=args.journal,
        result_cache=args.result_cache,
    )
    rows = []
    for pool_name, pool in report["pools"].items():
        rows.append([
            pool_name,
            pool["queries"],
            pool["completed"],
            pool["failed"],
            pool["rejected"],
            _fmt_s(pool["p50_response"]),
            _fmt_s(pool["p95_response"]),
            _fmt_s(pool["p99_response"]),
            _fmt_s(pool["mean_queue_delay"]),
        ])
    print(format_table(
        ["pool", "queries", "done", "failed", "rejected",
         "p50 (s)", "p95 (s)", "p99 (s)", "queue delay (s)"],
        rows,
        title=(f"job server SLOs (policy={report['scheduling_policy']}, "
               f"seed={args.seed}, workers={args.workers})"),
    ))
    print(f"submitted: {report['submitted']}  completed: {report['completed']}  "
          f"failed: {report['failed']}  rejected: {report['rejected']}  "
          f"queued peak: {report['queued_peak']}")
    print(f"revocations: {report['revocations']}")
    if report.get("rejected_by_reason"):
        reasons = ", ".join(f"{k}={v}" for k, v in
                            sorted(report["rejected_by_reason"].items()))
        print(f"rejections by reason: {reasons}  "
              f"client retries: {report.get('client_retries', 0)}")
    if report.get("tenants"):
        t_rows = [[t["tenant"], t["submitted"], t["admitted"], t["completed"],
                   t["failed"], t["cache_hits"],
                   sum(t["rejections"].values()),
                   t["breaker_state"] or "-"]
                  for t in report["tenants"].values()]
        print(format_table(
            ["tenant", "submitted", "admitted", "done", "failed",
             "cache hits", "shed", "breaker"],
            t_rows, title="per-tenant admission",
        ))
    if report.get("result_cache"):
        cache = report["result_cache"]
        print(f"result cache: entries={cache['entries']} hits={cache['hits']} "
              f"misses={cache['misses']} evictions={cache['evictions']} "
              f"validated={cache['validated']}")
    if args.journal:
        print(f"journal: {args.journal}")
    if report["failed"] or report["rejected"]:
        print("UNHEALTHY: queries failed or were rejected", file=sys.stderr)
        return 1
    return 0


def _fmt_s(value: Optional[float]) -> str:
    """Fixed-precision simulated seconds; '-' when no sample exists."""
    return "-" if value is None else f"{value:.3f}"


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a scenario with engine-wide tracing on; export its timeline.

    Writes a Chrome ``trace_event`` JSON (loadable in ``chrome://tracing`` /
    Perfetto) plus a flat JSONL event log, verifies the emitted task spans
    reconcile exactly with the scheduler's books (invariant 8), and prints a
    span/metrics summary.  Exits nonzero on any reconciliation violation.
    """
    from repro.faults.invariants import InvariantChecker
    from repro.obs.export import write_chrome_trace, write_jsonl

    # The scenario builders construct their own contexts; the env var is the
    # channel that reaches every one of them.
    os.environ["FLINT_TRACE"] = "1"

    captured = {}

    def _capture(ctx) -> None:
        # The checker must subscribe before anything runs, or post-run
        # checkpoint state looks unannounced (false invariant-3 hits).
        captured["ctx"] = ctx
        captured["checker"] = InvariantChecker(ctx)

    if args.scenario == "multitenant":
        from repro.server.scenario import run_multitenant

        run_multitenant(
            policy=args.policy,
            num_workers=args.workers,
            seed=args.seed,
            queries=args.queries,
            revoke=args.revoke,
            context_hook=_capture,
        )
    elif args.scenario == "storm":
        _run_storm_scenario(args, _capture)
    elif args.scenario == "streaming":
        _run_streaming_scenario(args, _capture)
    else:
        _run_workload_scenario(args, _capture)

    ctx = captured["ctx"]
    checker = captured["checker"]
    violations = checker.check("trace")

    events = ctx.obs.bus.events
    out_path = args.out
    events_path = args.events or f"{out_path}.jsonl"
    write_chrome_trace(events, out_path)
    write_jsonl(events, events_path)

    stats = ctx.scheduler.stats
    completed_spans = ctx.obs.bus.count("task", status="complete")
    lost_spans = ctx.obs.bus.count("task", status="lost")
    print(f"trace: {len(events)} events -> {out_path} (+ {events_path})")
    print(
        f"task spans: {completed_spans} complete / {lost_spans} lost; "
        f"scheduler books: {stats.tasks_completed} completed / "
        f"{stats.tasks_lost} lost"
    )
    print(
        f"spans by kind: "
        + ", ".join(
            f"{kind}={n}"
            for kind in sorted({e.kind for e in events})
            if (n := ctx.obs.bus.count(kind))
        )
    )
    metrics = ctx.metrics_report()
    highlights = {
        name: value
        for name, value in metrics["counters"].items()
        if name.startswith(("scheduler.", "blocks.", "checkpoint.gc"))
    }
    if highlights:
        print("counters: " + ", ".join(f"{k}={v:g}" for k, v in sorted(highlights.items())))
    if violations:
        for violation in violations:
            print(f"RECONCILIATION FAILURE: {violation}", file=sys.stderr)
        return 1
    print("span/book reconciliation: OK")
    return 0


def _run_storm_scenario(args: argparse.Namespace, context_hook) -> None:
    """The Figure 3 recipe: memory-heavy PageRank + correlated revocations.

    An oversized working set under MEMORY_ONLY persistence plus a burst of
    revocations mid-iteration produces the recomputation storm; the trace
    shows it as ``recompute`` ticks and re-run task spans on the surviving
    workers' lanes.
    """
    from repro.analysis.experiments import build_engine_context
    from repro.workloads import PageRankWorkload

    ctx = build_engine_context(num_workers=args.workers, seed=args.seed)
    context_hook(ctx)
    workload = PageRankWorkload(
        ctx, data_gb=6.0, num_edges=8_000, num_vertices=1_600,
        partitions=8, iterations=6, memory_inflation=2.5, seed=99,
    )
    workload.load()

    def _revoke(_event):
        victims = ctx.cluster.live_workers()[:2]
        if victims:
            ctx.cluster.force_revoke(victims)

    ctx.env.schedule_at(args.revoke_at, "storm_revocation", callback=_revoke)
    workload.run()


def _run_streaming_scenario(args: argparse.Namespace, context_hook) -> None:
    """Trace the micro-batch plane: ``stream-batch`` spans on the
    driver/streaming lane over the usual task/job/cache books."""
    from repro.analysis.experiments import build_engine_context

    ctx = build_engine_context(num_workers=args.workers, seed=args.seed)
    context_hook(ctx)
    workload = _build_streaming_workload(ctx, args, partitions=2 * args.workers)
    workload.load()
    workload.run()


def _run_workload_scenario(args: argparse.Namespace, context_hook) -> None:
    from repro.analysis.experiments import build_engine_context
    from repro.workloads import ALSWorkload, KMeansWorkload, PageRankWorkload

    ctx = build_engine_context(num_workers=args.workers, seed=args.seed)
    context_hook(ctx)
    factories = {
        "pagerank": lambda: PageRankWorkload(ctx, partitions=2 * args.workers),
        "kmeans": lambda: KMeansWorkload(ctx, partitions=2 * args.workers),
        "als": lambda: ALSWorkload(ctx, partitions=2 * args.workers),
    }
    workload = factories[args.scenario]()
    workload.load()
    workload.run()


def cmd_advise(args: argparse.Namespace) -> int:
    """Print the what-if report for a prospective job."""
    from repro.core.advisor import JobProfile, advise

    provider = standard_provider(seed=args.seed)
    advice = advise(
        provider,
        JobProfile(runtime=args.hours * HOUR, cluster_size=args.nodes),
    )
    print(advice.render())
    return 0


def cmd_canonical(args: argparse.Namespace) -> int:
    """Long-run canonical-job simulation (the Figures 10/11 harness)."""
    import numpy as np

    provider = standard_provider(seed=args.seed)
    selectors = {
        "flint-batch": (flint_batch_selector(), True),
        "spot-fleet": (spot_fleet_selector(), False),
        "on-demand": (on_demand_selector(), False),
    }
    selector, checkpointing = selectors[args.selector]
    config = CanonicalConfig(job_length=args.hours * HOUR, checkpointing=checkpointing)
    sim = CanonicalSimulator(provider, config, selector)
    outcomes = sim.sweep(num_runs=args.runs, spacing=8 * HOUR)
    print(format_table(
        ["metric", "value"],
        [
            ["runs", args.runs],
            ["mean runtime (s)", float(np.mean([o.runtime for o in outcomes]))],
            ["mean overhead (%)", 100 * float(np.mean([o.overhead for o in outcomes]))],
            ["mean cost ($)", float(np.mean([o.cost for o in outcomes]))],
            ["total revocations", sum(o.revocations for o in outcomes)],
        ],
        title=f"canonical job under {args.selector}",
    ))
    return 0


def cmd_longrun(args: argparse.Namespace) -> int:
    """Portfolio sweep at scale: 1000s of nodes over weeks of trace."""
    from repro.analysis.longrun import LongHorizonConfig, run_long_horizon

    provider = standard_provider(seed=args.seed)
    config = LongHorizonConfig(
        num_nodes=args.nodes,
        weeks=args.weeks,
        portfolio_size=args.portfolio,
        job_length=args.hours * HOUR,
        spacing=args.spacing * HOUR,
        checkpointing=not args.no_checkpointing,
        bid_multiplier=args.bid_multiplier,
        interactive=not args.batch,
    )
    report = run_long_horizon(provider, config)
    print(format_table(
        ["metric", "value"],
        [
            ["nodes", config.num_nodes],
            ["weeks", config.weeks],
            ["portfolio", ", ".join(report.portfolio)],
            ["jobs", report.jobs],
            ["total cost ($)", report.total_cost],
            ["total revocations", report.total_revocations],
            ["total checkpoints", report.total_checkpoints],
            ["simulated seconds", report.simulated_seconds],
            ["wall seconds", report.wall_seconds],
            ["simulated s / wall s", report.simulated_seconds_per_wall_second],
        ],
        title=f"long-horizon portfolio sweep ({'batch' if args.batch else 'interactive'})",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Flint (EuroSys'16) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("markets", help="show the spot universe")
    _add_common(p)
    p.set_defaults(func=cmd_markets)

    p = sub.add_parser("select", help="dry-run server selection")
    _add_common(p)
    p.add_argument("--mode", choices=["batch", "interactive"], default="batch")
    p.add_argument("--hours", type=float, default=2.0, help="job length estimate")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("run", help="run a workload under Flint")
    _add_common(p)
    p.add_argument("--workload",
                   choices=["pagerank", "kmeans", "als", "tpch", "streaming"],
                   default="pagerank")
    p.add_argument("--mode", choices=["batch", "interactive"], default="batch")
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--hours", type=float, default=2.0)
    _add_streaming(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("serve", help="multi-tenant job server scenario + SLO report")
    _add_common(p)
    p.add_argument("--policy", choices=["fifo", "fair"], default="fair",
                   help="root scheduling policy across pools")
    p.add_argument("--workers", type=int, default=10)
    p.add_argument("--queries", type=int, default=8,
                   help="queries per interactive client")
    p.add_argument("--clients", type=int, default=1,
                   help="closed-loop interactive clients")
    p.add_argument("--think-time", type=float, default=15.0,
                   help="mean client think time (simulated s)")
    p.add_argument("--queue-cap", type=int, default=16,
                   help="admission queue bound; arrivals beyond it are shed")
    p.add_argument("--interactive-cap", type=int, default=None,
                   help="max concurrent interactive queries (default unlimited)")
    p.add_argument("--revoke", action="store_true",
                   help="revoke one worker mid-stream (replacement after 120s)")
    p.add_argument("--tenant-quota", type=int, default=None,
                   help="per-tenant max queued+running queries")
    p.add_argument("--tenant-rate", type=float, default=None,
                   help="per-tenant admission rate limit (queries/sim s)")
    p.add_argument("--tenant-burst", type=float, default=4.0,
                   help="token-bucket burst capacity (with --tenant-rate)")
    p.add_argument("--breaker-threshold", type=int, default=None,
                   help="consecutive failures that open a tenant's circuit")
    p.add_argument("--breaker-reset", type=float, default=60.0,
                   help="simulated seconds an open circuit sheds before probing")
    p.add_argument("--retry-attempts", type=int, default=0,
                   help="client retries for shed queries (seeded backoff)")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="append query lifecycle JSONL journal at PATH")
    p.add_argument("--result-cache", action="store_true",
                   help="share query results across sessions by lineage key")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("trace", help="run a scenario traced; export a Chrome timeline")
    _add_common(p)
    p.add_argument("scenario",
                   choices=["multitenant", "storm", "streaming",
                            "pagerank", "kmeans", "als"],
                   help="what to run under FLINT_TRACE=1")
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace_event JSON output path")
    p.add_argument("--events", default=None,
                   help="JSONL event-log path (default: <out>.jsonl)")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--policy", choices=["fifo", "fair"], default="fair",
                   help="multitenant scenario: root scheduling policy")
    p.add_argument("--queries", type=int, default=4,
                   help="multitenant scenario: queries per client")
    p.add_argument("--revoke", action="store_true",
                   help="multitenant scenario: revoke one worker mid-stream")
    p.add_argument("--revoke-at", type=float, default=150.0,
                   help="storm scenario: simulated time of the revocation burst")
    _add_streaming(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("advise", help="what-if report: every market + both policies")
    _add_common(p)
    p.add_argument("--hours", type=float, default=2.0, help="job length")
    p.add_argument("--nodes", type=int, default=10)
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("canonical", help="long-run canonical-job simulation")
    _add_common(p)
    p.add_argument("--selector", choices=["flint-batch", "spot-fleet", "on-demand"],
                   default="flint-batch")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--hours", type=float, default=2.0)
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("longrun",
                       help="portfolio sweep at scale (10k nodes, month-long)")
    _add_common(p)
    p.add_argument("--nodes", type=int, default=1000,
                   help="cluster size diversified over the portfolio")
    p.add_argument("--weeks", type=float, default=2.0,
                   help="simulated horizon in weeks")
    p.add_argument("--portfolio", type=int, default=4,
                   help="number of spot markets in the portfolio")
    p.add_argument("--hours", type=float, default=2.0, help="job length")
    p.add_argument("--spacing", type=float, default=6.0,
                   help="hours between job starts")
    p.add_argument("--bid-multiplier", type=float, default=1.0)
    p.add_argument("--no-checkpointing", action="store_true")
    p.add_argument("--batch", action="store_true",
                   help="single-market batch jobs instead of diversified")
    p.set_defaults(func=cmd_longrun)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Subcommands publish flags as FLINT_* variables; a caller that imports
    # ``main`` gets its environment back exactly as it was.
    saved = {k: v for k, v in os.environ.items() if k.startswith("FLINT_")}
    try:
        return args.func(args)
    finally:
        for key in [k for k in os.environ if k.startswith("FLINT_") and k not in saved]:
            del os.environ[key]
        os.environ.update(saved)


if __name__ == "__main__":
    sys.exit(main())
