"""The six benchmark workloads: what one repetition runs, counts and checks.

Sizes are fixed (see README.md for why each workload exists); the only
input is the seed.  A repetition returns a :class:`Rep`: the wall time of
its measured region (context construction excluded), the number of work
units it completed, a JSON-able ``sim`` dict of simulated statistics whose
digest must repeat exactly, and whatever the reference checks need.

Program entry points are reached through their modules (``longrun.
run_long_horizon``, not a name imported here) so the traced pass, which
patches module attributes, sees every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from typing import Any, Callable, Dict, List, Optional

from repro import factory
from repro.analysis import experiments, longrun
from repro.market.provider import CloudProvider
from repro.server import loadgen, scenario
from repro.server.tenancy import RetryPolicy, TenancyConfig, TenantPolicy
from repro.simulation.clock import HOUR
from repro.simulation.rng import SeededRNG
from repro.streaming import (
    StreamingIdentityWorkload,
    StreamingWindowWorkload,
    StreamingWordCountWorkload,
)
from repro.workloads import ALSWorkload, KMeansWorkload, PageRankWorkload

CLUSTER_SIZE = 10
PARTITIONS = 20  # 10 r3.large x 2 VCPUs
REL_TOL = 1e-6  # the ledger's documented contract


class CheckFailed(AssertionError):
    """A repetition's outputs disagree with a reference computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Stopwatch:
    """Accumulates the measured regions of one repetition."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._t0: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.elapsed += time.perf_counter() - self._t0


@dataclasses.dataclass
class Rep:
    """Outcome of one repetition."""

    wall_s: float
    units: int
    sim: Dict[str, Any]
    #: Values only the reference check needs (not part of the digest).
    outputs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Layer counts no public stats object carries (per-layer metrics only).
    facts: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def digest(self) -> str:
        return digest_of(self.sim)


def digest_of(sim: Dict[str, Any]) -> str:
    """SHA-256 over canonical JSON; floats serialise by ``repr``, exactly."""
    blob = json.dumps(sim, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def checksum(value: Any) -> str:
    """Order-sensitive digest of a result (dicts by sorted key)."""
    if isinstance(value, dict):
        value = sorted(value.items())
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def _all_finite(vectors) -> bool:
    return all(math.isfinite(x) for vec in vectors for x in vec)


# ----------------------------------------------------------------------
# batch_rows
# ----------------------------------------------------------------------
def batch_rows(seed: int, tmp_dir: str) -> Rep:
    ctx = experiments.build_engine_context(num_workers=CLUSTER_SIZE, seed=seed)
    als = ALSWorkload(
        ctx, data_gb=10.0, num_ratings=30_000, num_users=2_000, num_items=750,
        partitions=PARTITIONS, iterations=6, seed=seed,
    )
    watch = Stopwatch()
    with watch:
        als.load()
        t0 = ctx.now
        factors = als.run()
    stats = ctx.scheduler.stats
    return Rep(
        wall_s=watch.elapsed,
        units=stats.tasks_completed,
        sim={
            "runtime": ctx.now - t0,
            "task_counts": stats.task_counts(),
            "factors": checksum(factors),
        },
        outputs={"factors": factors, "stats": stats, "users": als.num_users,
                 "rank": als.rank},
    )


def check_batch_rows(rep: Rep) -> None:
    out = rep.outputs
    factors = out["factors"]
    require(0 < len(factors) <= out["users"], "ALS factor count out of range")
    require(all(len(vec) == out["rank"] for vec in factors.values()),
            "ALS factor has the wrong rank")
    require(_all_finite(factors.values()), "ALS produced a non-finite factor")
    # The control the interaction table relies on: ALS never lowers a chain.
    require(out["stats"].columnar_chains == 0, "ALS ran a columnar chain")
    require(out["stats"].tasks_lost == 0, "failure-free ALS lost tasks")


# ----------------------------------------------------------------------
# batch_columnar
# ----------------------------------------------------------------------
def batch_columnar(seed: int, tmp_dir: str) -> Rep:
    watch = Stopwatch()
    ctx_k = experiments.build_engine_context(num_workers=CLUSTER_SIZE, seed=seed)
    kmeans = KMeansWorkload(
        ctx_k, num_points=60_000, k=10, dim=8, partitions=PARTITIONS,
        iterations=12, seed=seed,
    )
    with watch:
        kmeans.load()
        t0_k = ctx_k.now
        centroids = kmeans.run()
    ctx_p = experiments.build_engine_context(num_workers=CLUSTER_SIZE, seed=seed)
    pagerank = PageRankWorkload(
        ctx_p, num_edges=60_000, num_vertices=12_000, partitions=PARTITIONS,
        iterations=8, seed=seed,
    )
    with watch:
        pagerank.load()
        t0_p = ctx_p.now
        ranks = pagerank.run()
    stats_k, stats_p = ctx_k.scheduler.stats, ctx_p.scheduler.stats
    return Rep(
        wall_s=watch.elapsed,
        units=stats_k.tasks_completed + stats_p.tasks_completed,
        sim={
            "kmeans_runtime": ctx_k.now - t0_k,
            "kmeans_task_counts": stats_k.task_counts(),
            "centroids": checksum(centroids),
            "pagerank_runtime": ctx_p.now - t0_p,
            "pagerank_task_counts": stats_p.task_counts(),
            "ranks": checksum(ranks),
        },
        outputs={"centroids": centroids, "ranks": ranks,
                 "stats": (stats_k, stats_p), "k": kmeans.k, "dim": kmeans.dim,
                 "vertices": pagerank.num_vertices},
    )


def check_batch_columnar(rep: Rep) -> None:
    out = rep.outputs
    centroids, ranks = out["centroids"], out["ranks"]
    require(len(centroids) == out["k"], "KMeans lost a centroid")
    require(all(len(c) == out["dim"] for c in centroids), "centroid dim changed")
    require(_all_finite(centroids), "KMeans produced a non-finite centroid")
    require(0 < len(ranks) <= out["vertices"], "PageRank vertex count out of range")
    require(all(math.isfinite(r) and r >= 0.15 for r in ranks.values()),
            "PageRank rank below the damping floor")
    for stats in out["stats"]:
        require(stats.columnar_chains > 0, "no chain lowered to the columnar plane")
        require(stats.columnar_fallbacks == 0, "a columnar chain fell back to rows")
        require(stats.tasks_lost == 0, "failure-free run lost tasks")


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
#: (checkpointing, workers revoked at simulated t=30 s of the run)
RECOVERY_SCENARIOS = ((True, 0), (True, 5), (False, 1))
RECOVERY_MTTF = 1 * HOUR
REVOKE_AT = 30.0
REPLACEMENT_DELAY = 120.0


def _recovery_scenario(seed: int, checkpointing: bool, failures: int, watch: Stopwatch):
    """One scenario through the program's own experiment recipe."""
    contexts = []

    def factory(ctx):
        contexts.append(ctx)
        return PageRankWorkload(
            ctx, data_gb=2.0, num_edges=12_000, num_vertices=2_400, partitions=120,
            iterations=8, seed=seed,
        )

    with watch:
        run = experiments.run_batch_workload(
            factory, num_workers=CLUSTER_SIZE, seed=seed,
            checkpointing="flint" if checkpointing else "none",
            cluster_mttf=RECOVERY_MTTF, min_tau=30.0,
            concurrent_failures=failures, failure_at=REVOKE_AT if failures else None,
            replacement_delay=REPLACEMENT_DELAY,
        )
    return contexts[0], run.runtime, run.result


def recovery(seed: int, tmp_dir: str) -> Rep:
    watch = Stopwatch()
    sim: Dict[str, Any] = {}
    units = 0
    all_ranks = []
    revocations = []
    for checkpointing, failures in RECOVERY_SCENARIOS:
        ctx, runtime, ranks = _recovery_scenario(seed, checkpointing, failures, watch)
        stats = ctx.scheduler.stats
        units += stats.tasks_completed
        all_ranks.append(ranks)
        revocations.append(len(ctx.cluster.revocation_log))
        sim[f"ckpt{int(checkpointing)}_fail{failures}"] = {
            "runtime": runtime,
            "task_counts": stats.task_counts(),
            "revocations": len(ctx.cluster.revocation_log),
            "checkpoint_partitions": ctx.checkpoints.partitions_written,
            "checkpoint_bytes": ctx.checkpoints.bytes_written,
            "total_cost": ctx.env.provider.total_cost(ctx.now),
            "ranks": checksum(ranks),
        }
    return Rep(
        wall_s=watch.elapsed, units=units, sim=sim,
        outputs={"ranks": all_ranks, "revocations": revocations},
    )


def check_recovery(rep: Rep) -> None:
    baseline, revoked_ckpt, revoked_plain = rep.outputs["ranks"]
    require(revoked_ckpt == baseline,
            "ranks after 5 revocations differ from the failure-free ranks")
    require(revoked_plain == baseline,
            "ranks after 1 unprotected revocation differ from the failure-free ranks")
    expected = [failures for _ckpt, failures in RECOVERY_SCENARIOS]
    require(rep.outputs["revocations"] == expected,
            f"revocation counts {rep.outputs['revocations']} != {expected}")
    sim = rep.sim
    require(sim["ckpt1_fail0"]["checkpoint_partitions"] > 0,
            "the fault-tolerance manager never checkpointed")
    require(sim["ckpt1_fail5"]["runtime"] > sim["ckpt1_fail0"]["runtime"],
            "losing half the cluster did not lengthen the run")


# ----------------------------------------------------------------------
# serve_open_loop
# ----------------------------------------------------------------------
OFFERED_RATES = (6.0, 12.0, 24.0, 48.0)
#: A default ``TenancyConfig()`` builds no token bucket and no breaker, so
#: the tenancy layer would never be called; these are the limits of the
#: documented ``repro.cli serve`` example, loose enough to admit an analyst
#: who thinks 15 s between queries.
TENANCY = TenancyConfig(default=TenantPolicy(
    max_in_flight=8, rate=5.0, burst=4.0, breaker_threshold=10,
))
SATURATION_CLIENTS = 1000
QUERIES_PER_CLIENT = 2


def serve_open_loop(seed: int, tmp_dir: str) -> Rep:
    journal_path = os.path.join(tmp_dir, f"journal_{os.getpid()}.jsonl")
    if os.path.exists(journal_path):
        os.remove(journal_path)  # the journal appends; a rep starts empty
    watch = Stopwatch()
    try:
        with watch:
            points = loadgen.saturation_curve(
                OFFERED_RATES, num_clients=SATURATION_CLIENTS,
                queries_per_client=QUERIES_PER_CLIENT, num_workers=4, seed=seed,
                pool_cap=8, max_queue=512,
            )
            fifo = scenario.run_multitenant("fifo", num_workers=4, seed=seed, queries=4)
            fair = scenario.run_multitenant(
                "fair", num_workers=4, seed=seed, queries=8, clients=4,
                tenancy=TENANCY, retry=RetryPolicy(),
                journal_path=journal_path, result_cache=True,
            )
        with open(journal_path, encoding="utf-8") as fh:
            journal_lines = sum(1 for _ in fh)
    finally:
        if os.path.exists(journal_path):
            os.remove(journal_path)
    units = sum(p.scheduler_stats["tasks_completed"] for p in points)
    units += fifo["scheduler_stats"]["tasks_completed"]
    units += fair["scheduler_stats"]["tasks_completed"]
    sim: Dict[str, Any] = {"curve": [p.as_dict() for p in points]}
    for name, report in (("fifo", fifo), ("fair", fair)):
        sim[name] = {
            key: report[key]
            for key in ("submitted", "completed", "failed", "rejected", "queued_peak",
                        "pools", "revocations", "client_retries")
        }
        sim[name]["tasks_completed"] = report["scheduler_stats"]["tasks_completed"]
    sim["fair"]["tenants"] = fair["tenants"]
    sim["fair"]["result_cache"] = fair["result_cache"]
    return Rep(
        wall_s=watch.elapsed, units=units, sim=sim,
        outputs={"points": points, "fifo": fifo, "fair": fair,
                 "journal_lines": journal_lines},
    )


def check_serve_open_loop(rep: Rep) -> None:
    out = rep.outputs
    expected = SATURATION_CLIENTS * QUERIES_PER_CLIENT
    for point in out["points"]:
        require(point.submitted == expected,
                f"rate {point.offered_rps}: {point.submitted} submitted != {expected}")
        require(point.completed + point.rejected == point.submitted,
                f"rate {point.offered_rps}: completions + rejections != submissions")
        require(point.completed > 0 and point.p95_response is not None,
                f"rate {point.offered_rps}: nothing completed")
    low, high = out["points"][0], out["points"][-1]
    require(low.rejected == 0, "the under-loaded point rejected queries")
    require(high.p95_response > low.p95_response,
            "p95 did not rise past the saturation knee")
    for name in ("fifo", "fair"):
        report = out[name]
        require(report["failed"] == 0, f"{name}: a query raised")
        require(report["completed"] + report["rejected"] == report["submitted"],
                f"{name}: completions + rejections != submissions")
    cache = out["fair"]["result_cache"]
    require(cache["hits"] > 0, "identical analyst queries never hit the result cache")
    require(out["journal_lines"] >= 2 * out["fair"]["completed"],
            "the journal is missing lifecycle records")


# ----------------------------------------------------------------------
# stream_micro
# ----------------------------------------------------------------------
STREAM_PARTITIONS = 8
STREAM_BATCHES = 48


def stream_micro(seed: int, tmp_dir: str) -> Rep:
    factories: Dict[str, Callable[[Any], Any]] = {
        "identity": lambda ctx: StreamingIdentityWorkload(
            ctx, records_per_batch=40_000, partitions=STREAM_PARTITIONS,
            num_batches=STREAM_BATCHES,
        ),
        "wordcount": lambda ctx: StreamingWordCountWorkload(
            ctx, lines_per_batch=16_000, partitions=STREAM_PARTITIONS,
            num_batches=STREAM_BATCHES, seed=seed, checkpointing=True,
            initial_delta=20.0, max_tau=60.0,
        ),
        "window": lambda ctx: StreamingWindowWorkload(
            ctx, records_per_batch=20_000, partitions=STREAM_PARTITIONS,
            num_batches=STREAM_BATCHES, window=3, slide=2, num_keys=40,
            seed=seed + 1,
        ),
    }
    watch = Stopwatch()
    sim: Dict[str, Any] = {}
    outputs: Dict[str, Any] = {}
    units = 0
    for name, build in factories.items():
        ctx = experiments.build_engine_context(num_workers=CLUSTER_SIZE, seed=seed)
        workload = build(ctx)
        with watch:
            workload.load()
            result = workload.run()
        ssc = workload.ssc
        stats = ctx.scheduler.stats
        units += stats.tasks_completed
        sim[name] = {
            "latencies": checksum(ssc.latencies()),
            "records_per_second": ssc.sustained_records_per_second(),
            "task_counts": stats.task_counts(),
            "checkpoint_partitions": ctx.checkpoints.partitions_written,
            "result": checksum(result),
        }
        outputs[name] = (workload, result)
    return Rep(wall_s=watch.elapsed, units=units, sim=sim, outputs=outputs)


def check_stream_micro(rep: Rep) -> None:
    identity, counts = rep.outputs["identity"]
    require(counts == identity.expected(), "identity stream dropped records")
    wordcount, (_keys, final) = rep.outputs["wordcount"]
    require(dict(final) == wordcount.expected_state(),
            "wordcount state differs from the engine-free reference")
    window, sums = rep.outputs["window"]
    require(sums == window.expected(), "window sums differ from the reference")
    require(rep.sim["wordcount"]["checkpoint_partitions"] > 0,
            "the state checkpoint policy never wrote")


# ----------------------------------------------------------------------
# market_whatif
# ----------------------------------------------------------------------
LONGRUN_SWEEPS = 12
LONGRUN_CONFIG = longrun.LongHorizonConfig(num_nodes=10_000, weeks=4.0, portfolio_size=4)
LEDGER_STEPS = 6_000
LEDGER_QUERY_EVERY = 10


def _ledger_churn(seed: int):
    """Seeded acquire/revoke/terminate churn with interleaved curve reads.

    The scenario of ``tests/market/test_provider_ledger.run_chaos``: writes
    sit beside reads, so a faster query that slows ``acquire`` shows.
    """
    provider: CloudProvider = factory.standard_provider(
        seed=seed, include_preemptible=True
    )
    rng = SeededRNG(seed, "ledger-churn")
    market_ids = list(provider.markets)
    live: List[Any] = []
    t = 0.0
    ops = 0
    folded = 0.0
    for step in range(LEDGER_STEPS):
        t += rng.uniform(60.0, 2 * HOUR)
        if rng.uniform(0.0, 1.0) < 0.6:
            mid = market_ids[int(rng.uniform(0, len(market_ids)))]
            market = provider.market(mid)
            bid = market.on_demand_price * rng.uniform(0.3, 1.2)
            if market.is_available(t, bid):
                live.extend(provider.acquire(mid, bid, t, count=1 + int(rng.uniform(0, 3))))
                ops += 1
        survivors = []
        for inst in live:
            if inst.revocation_time is not None and inst.revocation_time <= t:
                provider.revoke(inst, inst.revocation_time)
                ops += 1
            elif rng.uniform(0.0, 1.0) < 0.15:
                provider.terminate(inst, t)
                ops += 1
            else:
                survivors.append(inst)
        live = survivors
        if step % LEDGER_QUERY_EVERY == 0:
            folded += provider.total_cost(t)
            folded += provider.cost_between(t * 0.5, t)
            folded += provider.capacity_at(t * 0.75)
            ops += 3
    return provider, t + 3 * HOUR, ops, folded, len(live)


def market_whatif(seed: int, tmp_dir: str) -> Rep:
    watch = Stopwatch()
    sweeps = []
    with watch:
        for i in range(LONGRUN_SWEEPS):
            provider = factory.standard_provider(seed=seed + i)
            sweeps.append(longrun.run_long_horizon(provider, LONGRUN_CONFIG))
        ledger, now, ops, folded, live = _ledger_churn(seed)
    jobs = sum(report.jobs for report in sweeps)
    sim = {
        "sweeps": [
            {
                "portfolio": report.portfolio,
                "jobs": report.jobs,
                "total_cost": report.total_cost,
                "revocations": report.total_revocations,
                "checkpoints": report.total_checkpoints,
                "span": report.simulated_seconds,
            }
            for report in sweeps
        ],
        "ledger": {
            "ops": ops,
            "instances": len(ledger.instances),
            "folded_queries": folded,
            "total_cost": ledger.total_cost(now),
        },
    }
    return Rep(
        wall_s=watch.elapsed, units=jobs + ops, sim=sim,
        outputs={"ledger": ledger, "now": now, "live": live, "sweeps": sweeps},
        facts={
            "longrun.jobs": jobs,
            "longrun.sim_s": sum(report.simulated_seconds for report in sweeps),
        },
    )


def check_market_whatif(rep: Rep) -> None:
    out = rep.outputs
    ledger, now = out["ledger"], out["now"]
    total = ledger.total_cost(now)
    window = ledger.cost_between(0.0, now)
    require(total > 0.0, "the ledger billed nothing")
    require(abs(total - window) <= REL_TOL * total,
            f"total_cost {total!r} != cost_between(0, now) {window!r}")
    brute = sum(ledger.accrued_cost(inst, now) for inst in ledger.instances)
    require(abs(total - brute) <= REL_TOL * brute,
            "the analytic ledger disagrees with the per-instance books")
    # Only revocations stamped after the last churn step can separate the
    # two counts, so the curve may hold fewer instances than the live list.
    running = sum(
        1 for inst in ledger.instances
        if inst.launch_time <= now and (inst.end_time is None or inst.end_time > now)
    )
    require(ledger.capacity_at(now) == running, "capacity curve miscounts running instances")
    for report in out["sweeps"]:
        require(report.jobs > 0 and report.total_cost > 0.0, "an empty long-horizon sweep")
        require(len(report.portfolio) == LONGRUN_CONFIG.portfolio_size,
                "portfolio has the wrong size")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    why: str
    run: Callable[[int, str], Rep]
    check: Callable[[Rep], None]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "batch_rows", "engine tasks",
            "ALS has zero columnar chains: row data plane, user kernels and "
            "few-large-bucket shuffle do the work; scheduler-only changes must not move it",
            batch_rows, check_batch_rows,
        ),
        Workload(
            "batch_columnar", "engine tasks",
            "KMeans then PageRank, every fused chain lowered to NumPy kernels: "
            "bypasses the row plane, exercises columnar, sizing and the block manager",
            batch_columnar, check_batch_columnar,
        ),
        Workload(
            "recovery", "engine tasks",
            "PageRank at 100 records per task under 0, 5 and 1 revocations (paper Fig 7/8): "
            "per-task control plane, checkpoint writes and restores, lineage recompute",
            recovery, check_recovery,
        ),
        Workload(
            "serve_open_loop", "engine tasks",
            "1000 open-loop clients over the saturation knee plus fifo and hardened fair "
            "serving: admission, pump, event queue, tenancy, journal, result cache",
            serve_open_loop, check_serve_open_loop,
        ),
        Workload(
            "stream_micro", "engine tasks",
            "identity, checkpointed wordcount and sliding window over 48 micro-batches: "
            "streaming lowering, keyed state, many small jobs on both data planes",
            stream_micro, check_stream_micro,
        ),
        Workload(
            "market_whatif", "jobs+ledger ops",
            "12 month-long 10k-node portfolio sweeps plus a 6000-step ledger churn: "
            "no task graph, so traces, market and longrun do all the work",
            market_whatif, check_market_whatif,
        ),
    )
}
