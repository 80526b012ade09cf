"""Frozen goldens: the engine's observable contract, pinned as data.

``golden_engine.json`` was captured once, at the last commit that still
carried the legacy scheduler, the unfused row plane and the process/async
executors, and every one of those 24 configurations reproduced it.  Those
forks are gone; the fixture is what they agreed on.  The two
``*/lineage_rev1`` rows came later, captured under both surviving planes
from the code just before they were added.  Each row pins a
scenario's simulated runtime and accrued billing (``float.hex``, so the
comparison is bit-for-bit), the scheduler's task books, and a digest of the
action results.

Every row runs twice: on the plane the engine chooses for itself, and on
the fused row plane alone (the ``row_plane`` fixture: no stage finds its
kernel, no caller is handed a batch).  The rows are only worth something
if the optimisations under test actually ran, so each scenario also
asserts that the memoised frontiers, chain fusion and (where the workload
carries batch kernels) columnar lowering were engaged — and that no chain
fell back from the columnar plane to rows unasked.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re

import pytest

from repro.analysis.experiments import build_engine_context
from repro.core.ftmanager import FaultToleranceManager
from repro.faults.chaos import _MultiJobWorkload, _pagerank, generate_spec
from repro.faults.harness import run_with_plan
from repro.server.scenario import run_multitenant
from repro.simulation.clock import HOUR
from repro.streaming import (
    StreamingIdentityWorkload,
    StreamingWindowWorkload,
    StreamingWordCountWorkload,
)
from repro.workloads import ALSWorkload, KMeansWorkload, PageRankWorkload
from repro.workloads.streaming import StreamingWorkload
from tests.conftest import build_on_demand_context
from tests.engine.test_fusion_pipeline import PIPELINES

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_engine.json")
_MARKET = "od/r3.large"

BATCH = {
    "pagerank": lambda ctx: PageRankWorkload(
        ctx, data_gb=0.5, num_edges=3_000, num_vertices=600,
        partitions=8, iterations=4, seed=7,
    ),
    "kmeans": lambda ctx: KMeansWorkload(
        ctx, data_gb=0.5, num_points=2_000, k=4, dim=4,
        partitions=8, iterations=4, seed=7,
    ),
    "als": lambda ctx: ALSWorkload(
        ctx, data_gb=0.5, num_ratings=2_000, num_users=300, num_items=120,
        partitions=8, iterations=3, seed=7,
    ),
}
REVOCATIONS = (0, 1, 2, 5)
#: Workloads also pinned under a revocation with lineage recovery only (no
#: checkpointing); PageRank's is ``bench`` ``recovery`` ``ckpt0_fail1``.
LINEAGE_ONLY = ("kmeans", "als")

DSTREAMS = {
    "identity": lambda ctx: StreamingIdentityWorkload(
        ctx, records_per_batch=1_600, partitions=8, num_batches=4,
    ),
    "wordcount": lambda ctx: StreamingWordCountWorkload(
        ctx, lines_per_batch=800, partitions=8, num_batches=4, seed=23,
        checkpointing=True, initial_delta=20.0, max_tau=60.0,
    ),
    "window": lambda ctx: StreamingWindowWorkload(
        ctx, records_per_batch=800, partitions=8, num_batches=5,
        window=3, slide=2, num_keys=20, seed=31,
    ),
}

CHAOS = {
    "revocation": _pagerank,
    "io": _pagerank,
    "multijob": _MultiJobWorkload,
}


@functools.lru_cache(maxsize=None)
def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(value) -> str:
    """Order-sensitive digest of a result (top-level dicts by sorted key)."""
    if isinstance(value, dict):
        value = sorted(value.items())
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def _row(ctx, runtime, result):
    stats = ctx.scheduler.stats
    return {
        "runtime": float(runtime).hex(),
        "total_cost": float(ctx.env.provider.total_cost(ctx.now)).hex(),
        "task_counts": stats.task_counts(),
        "result": digest(result),
    }


def _revoke(ctx, count, at):
    """Revoke ``count`` workers ``at`` seconds from now; replace them later."""

    def inject(_event):
        victims = ctx.cluster.live_workers()[:count]
        ctx.cluster.force_revoke(victims)
        ctx.cluster.launch(_MARKET, 0.175, count=len(victims), delay=120.0)

    ctx.env.schedule_in(at, "inject-failures", callback=inject)


def run_batch(name, revocations, checkpointing=True):
    """A batch workload with concurrent mid-run revocations.

    The kill lands at half the checkpointed failure-free runtime, read off
    the workload's own ``rev0`` row so every row replays on its own.
    Without ``checkpointing`` no fault-tolerance manager runs and the lost
    partitions are recomputed from lineage alone.
    """
    ctx = build_engine_context(num_workers=6, seed=0)
    manager = None
    if checkpointing:
        manager = FaultToleranceManager(ctx, lambda: 1 * HOUR, min_tau=30.0)
        manager.start()
    workload = BATCH[name](ctx)
    workload.load()
    if revocations:
        base_runtime = float.fromhex(load_golden()[f"{name}/rev0"]["runtime"])
        _revoke(ctx, revocations, base_runtime * 0.5)
    t0 = ctx.now
    result = workload.run()
    runtime = ctx.now - t0
    if manager is not None:
        manager.stop()
    return _row(ctx, runtime, result), ctx.scheduler.stats


def run_state_stream(revocations):
    """Legacy-port micro-batch state folding (persist/unpersist per batch)."""
    ctx = build_engine_context(num_workers=6, seed=0)
    workload = StreamingWorkload(
        ctx, batch_records=1_200, num_keys=50, partitions=8, seed=11
    )
    if revocations:
        _revoke(ctx, revocations, 150.0)
    t0 = ctx.now
    result = workload.run(num_batches=5)
    return _row(ctx, ctx.now - t0, result), ctx.scheduler.stats


def run_dstream(name):
    ctx = build_engine_context(num_workers=6, seed=0)
    workload = DSTREAMS[name](ctx)
    workload.load()
    result = workload.run()
    return _row(ctx, ctx.now, result), ctx.scheduler.stats


def run_tenants(policy):
    """Job-server multiplexing: TPC-H analysts against a PageRank batch."""
    captured = []
    report = run_multitenant(
        policy=policy, num_workers=4, seed=1234, queries=2,
        context_hook=captured.append,
    )
    (ctx,) = captured
    # Plane-local diagnostics; everything else in the report is contract.
    report.pop("scheduler_stats")
    return _row(ctx, ctx.now, report), ctx.scheduler.stats


def run_chain(name):
    """A synthetic multi-operator chain with one fusion boundary in it."""
    ctx = build_on_demand_context(4)
    result = PIPELINES[name][0](ctx)
    return _row(ctx, ctx.now, result), ctx.scheduler.stats


def run_chaos(family, seed):
    """One seeded fault plan; the harness raises on any broken invariant."""
    report = run_with_plan(CHAOS[family], generate_spec(seed, family), seed=seed)
    assert report.passed
    row = {
        "spec": report.spec,
        "runtime": float(report.runtime).hex(),
        "reference_runtime": float(report.reference_runtime).hex(),
        # Shuffle ids come from a process-global counter: mask them.
        "faults_fired": [
            re.sub(r"shuffle \d+", "shuffle <id>", repr(f)) for f in report.faults_fired
        ],
        "checks_run": report.checks_run,
        "result": digest(report.results),
    }
    return row, None


def _scenarios():
    table = {}
    for name in BATCH:
        for revocations in REVOCATIONS:
            table[f"{name}/rev{revocations}"] = functools.partial(run_batch, name, revocations)
    for name in LINEAGE_ONLY:
        table[f"{name}/lineage_rev1"] = functools.partial(run_batch, name, 1, checkpointing=False)
    for revocations in (0, 1):
        table[f"state_stream/rev{revocations}"] = functools.partial(run_state_stream, revocations)
    for name in DSTREAMS:
        table[f"dstream/{name}"] = functools.partial(run_dstream, name)
    for name in PIPELINES:
        table[f"chain/{name}"] = functools.partial(run_chain, name)
    for policy in ("fifo", "fair"):
        table[f"multitenant/{policy}"] = functools.partial(run_tenants, policy)
    for family in CHAOS:
        for seed in (0, 1):
            table[f"chaos/{family}/seed{seed}"] = functools.partial(run_chaos, family, seed)
    return table


#: Row name -> ``runner() -> (row, SchedulerStats or None)``.
SCENARIOS = _scenarios()

#: Scenarios whose every chain carries batch kernels: they must lower.
_LOWERS = ("pagerank/", "kmeans/", "dstream/identity", "dstream/wordcount")
#: Scenarios that reduce by a declared ``Sum`` over a lowered map head.
_DECLARES_SUM = ("pagerank/", "kmeans/", "dstream/window", "dstream/wordcount")
#: Scenarios with multi-operator narrow chains: fusion must engage.
_FUSES = ("multitenant/", "chain/")


def test_fixture_covers_exactly_the_scenarios():
    assert sorted(load_golden()) == sorted(SCENARIOS)


@pytest.mark.parametrize("columnar", ("on", "off"))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_row(request, name, columnar):
    if columnar == "off":
        request.getfixturevalue("row_plane")
    row, stats = SCENARIOS[name]()
    assert row == load_golden()[name], f"{name} (columnar {columnar}) drifted from the golden capture"
    if stats is None:
        return
    # The optimisations must be engaged, not silently bypassed.
    assert stats.columnar_fallbacks == 0
    assert stats.readiness_rebuilds <= stats.scheduling_rounds
    if stats.map_tasks:  # multi-stage jobs read their memoised frontier most rounds
        assert stats.readiness_rebuilds < stats.scheduling_rounds / 2
    if name.startswith(_FUSES):
        assert stats.fused_chains > 0
        assert stats.fused_stages >= stats.fused_chains
    if columnar == "on" and name.startswith(_LOWERS):
        assert stats.columnar_chains > 0
        assert stats.columnar_stages >= stats.columnar_chains
    if columnar == "on" and name.startswith(_DECLARES_SUM):
        assert stats.columnar_combines > 0
    if columnar == "off":
        # The row plane must not lower anything.
        assert stats.columnar_chains == 0
        assert stats.columnar_combines == 0
