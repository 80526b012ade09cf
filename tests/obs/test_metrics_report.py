"""``ctx.metrics_report()`` against a frozen golden.

The report is derived: counters from the engine's always-on books
(scheduler, block managers, shuffle manager, checkpoint registry) and
everything else from the spans on the event bus.  The golden was captured
from the registry that used to count the same facts a second time, so this
file pins that deriving them changed no number.

Counters must match exactly.  Histogram ``count``/``min``/``max`` and the
percentile ladder must match exactly; ``sum`` and ``mean`` may differ by a
few ulps where the derived sample order differs from the old observation
order (float addition is not associative).

Regenerate (only on a deliberate behaviour change)::

    PYTHONPATH=src python tests/obs/test_metrics_report.py --write
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from repro.faults.harness import build_fault_context
from repro.server import JobServer, ServerConfig, TenancyConfig, TenantPolicy
from repro.server.scenario import run_multitenant
from repro.streaming import StreamingWordCountWorkload
from repro.workloads import KMeansWorkload, PageRankWorkload

GOLDEN = Path(__file__).with_name("golden_metrics_report.json")

#: Float tolerance for a histogram's ``sum``/``mean``, in units in the last
#: place: summation order may differ from the old observation order.
SUM_ULPS = 4


def _kmeans():
    """KMeans, then a MEMORY_AND_DISK dataset larger than the cluster's
    storage memory, so evictions spill (``blocks.spilled``)."""
    ctx = build_fault_context(num_workers=4, seed=0, trace=True)
    workload = KMeansWorkload(ctx, partitions=8, iterations=3)
    workload.load()
    workload.run()
    big = ctx.cluster.total_storage_memory() // 4
    spilled = ctx.generate(
        lambda p: list(range(p, p + 4)), 8, record_size=max(1, big // 4),
    ).persist(use_disk=True)
    spilled.count()
    spilled.count()
    return ctx


def _pagerank_revoked():
    """PageRank, 3 iterations, one revocation at 50 s (lost tasks,
    recomputed partitions, one revoked instance's bill)."""
    ctx = build_fault_context(num_workers=4, seed=0, trace=True)
    workload = PageRankWorkload(ctx, partitions=8, iterations=3)
    workload.load()
    ctx.env.schedule_in(
        50.0, "revoke",
        callback=lambda _e: ctx.cluster.force_revoke(ctx.cluster.live_workers()[:1]),
    )
    workload.run()
    return ctx


def _multitenant(monkeypatch):
    """The serving scenario with a revocation, the result cache, and a
    tenant rate tight enough to reject queries."""
    monkeypatch.setenv("FLINT_TRACE", "1")
    captured = {}
    run_multitenant(
        policy="fair", num_workers=4, seed=11, queries=3, clients=3,
        think_time=10.0, batch_iterations=1, revoke=True, result_cache=True,
        interactive_cap=1,
        tenancy=TenancyConfig(default=TenantPolicy(rate=0.001, burst=2.0)),
        context_hook=lambda ctx: captured.setdefault("ctx", ctx),
    )
    return captured["ctx"]


def _streaming_checkpointed():
    """Stateful wordcount under the τ-periodic state-checkpoint policy
    (checkpoint writes and GC, stream-batch spans)."""
    ctx = build_fault_context(num_workers=4, seed=0, trace=True)
    workload = StreamingWordCountWorkload(
        ctx, lines_per_batch=200, partitions=4, num_batches=6,
        record_size=20_000, checkpointing=True, initial_delta=20.0,
        max_tau=60.0,
    )
    workload.run()
    return ctx


def _server_failures():
    """A query that raises next to one that completes
    (``server.queries_failed``)."""
    ctx = build_fault_context(num_workers=4, seed=0, trace=True)
    server = JobServer(ctx, ServerConfig())
    plan = ctx.parallelize(list(range(64)), 4)

    def boom():
        raise KeyError("missing")

    server.submit_query(plan.count, name="ok")
    server.submit_query(boom, name="boom")
    return ctx


SCENARIOS = {
    "kmeans": lambda mp: _kmeans(),
    "pagerank_revoked": lambda mp: _pagerank_revoked(),
    "multitenant": _multitenant,
    "streaming_checkpointed": lambda mp: _streaming_checkpointed(),
    "server_failures": lambda mp: _server_failures(),
}


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_matches_golden(name, golden, monkeypatch):
    report = SCENARIOS[name](monkeypatch).metrics_report()
    expected = golden[name]
    assert set(report) == {"counters", "histograms"}
    assert report["counters"] == expected["counters"]
    assert sorted(report["histograms"]) == sorted(expected["histograms"])
    for hist, want in expected["histograms"].items():
        got = report["histograms"][hist]
        for key in ("count", "min", "max", "p50", "p95", "p99"):
            assert got[key] == want[key], (hist, key)
        for key in ("sum", "mean"):
            assert _ulps(got[key], want[key]) <= SUM_ULPS, (hist, key)


def test_golden_covers_every_counter_family(golden):
    counters = set()
    histograms = set()
    for scenario in golden.values():
        counters.update(scenario["counters"])
        histograms.update(scenario["histograms"])
    for name in (
        "scheduler.tasks_completed", "scheduler.tasks_lost",
        "scheduler.tasks_dispatched", "scheduler.recomputed_partitions",
        "blocks.puts", "blocks.dropped", "blocks.spilled",
        "shuffle.bytes_written", "shuffle.bytes_fetched_local",
        "shuffle.bytes_fetched_remote",
        "checkpoint.bytes_written", "checkpoint.partitions_written",
        "checkpoint.gc_deleted",
        "streaming.batches", "streaming.records",
        "server.queries_completed", "server.queries_failed",
        "server.queries_rejected", "server.cache_hits",
    ):
        assert name in counters, name
    assert any(n.startswith("market.spend.") for n in counters)
    assert any(n.startswith("server.rejected.") for n in counters)
    assert "streaming.batch_latency" in histograms
    assert any(n.startswith("server.queue_delay.") for n in histograms)
    assert any(n.startswith("pool.queue_delay.") for n in histograms)


def test_report_is_empty_when_tracing_is_off(ctx):
    ctx.parallelize(list(range(16)), 4).count()
    assert ctx.metrics_report() == {"counters": {}, "histograms": {}}


def _capture() -> dict:
    with pytest.MonkeyPatch.context() as mp:
        return {name: SCENARIOS[name](mp).metrics_report() for name in sorted(SCENARIOS)}


if __name__ == "__main__":
    if "--write" in sys.argv:
        GOLDEN.write_text(json.dumps(_capture(), indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(_capture(), indent=1, sort_keys=True))
