"""JobServer admission control, execution, and SLO accounting."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import build_engine_context
from repro.obs.metrics import percentile
from repro.server import (
    JobRejected,
    JobServer,
    PoolConfig,
    ServerConfig,
)


@pytest.fixture
def ctx():
    return build_engine_context(num_workers=4, seed=0)


def _count_query(ctx, n=40, partitions=4):
    rdd = ctx.parallelize(list(range(n)), partitions)
    return lambda: rdd.count()


def test_run_query_completes_and_records(ctx):
    server = JobServer(ctx)
    result = server.run_query(_count_query(ctx), name="q0")
    assert result == 40
    record = server.records[0]
    assert record.ok and record.done and not record.rejected
    assert record.name == "q0"
    assert record.queue_delay == 0.0
    assert record.response is not None and record.response > 0
    assert server.stats.submitted == server.stats.completed == 1


def test_submit_query_inline_when_uncapped(ctx):
    server = JobServer(ctx)
    record = server.submit_query(_count_query(ctx))
    # No cap: the query executed inline, blocking in simulated time.
    assert record.done and record.ok
    assert record.result == 40


def test_queue_then_drain_on_slot_free(ctx):
    server = JobServer(ctx, ServerConfig(
        pools=(PoolConfig("interactive", max_concurrent=1),),
    ))
    order = []

    def make(tag):
        fn = _count_query(ctx)

        def query():
            order.append(tag)
            return fn()

        return query

    # First query holds the pool's only slot; submit the second from inside
    # the first (the only way to overlap in a single-threaded simulation).
    second = {}

    def first():
        second["record"] = server.submit_query(
            make("second"), pool="interactive", name="second"
        )
        assert not second["record"].done  # queued, not rejected, not run
        assert server.queued() == 1
        return make("first")()

    record = server.submit_query(first, pool="interactive", name="first")
    assert record.done and record.ok
    # The epilogue of the first query drained the queue inline.
    assert second["record"].done and second["record"].ok
    assert order == ["first", "second"]
    assert server.stats.queued_peak == 1
    assert second["record"].queue_delay > 0


def test_rejection_when_queue_full(ctx):
    server = JobServer(ctx, ServerConfig(
        max_queue=0,
        pools=(PoolConfig("interactive", max_concurrent=1),),
    ))
    outcomes = []

    def inner():
        rejected = server.submit_query(
            _count_query(ctx), pool="interactive", name="shed",
            on_complete=lambda r: outcomes.append(r),
        )
        assert rejected.rejected and rejected.done
        return 1

    record = server.submit_query(inner, pool="interactive")
    assert record.ok
    assert server.stats.rejected == 1
    assert server.stats.rejected_by_pool == {"interactive": 1}
    # on_complete fired even for the shed query (closed loops keep moving).
    assert len(outcomes) == 1 and outcomes[0].rejected
    assert outcomes[0].response is None


def test_run_query_raises_on_rejection(ctx):
    server = JobServer(ctx, ServerConfig(
        max_queue=0,
        pools=(PoolConfig("interactive", max_concurrent=1),),
    ))

    def inner():
        with pytest.raises(JobRejected) as excinfo:
            server.run_query(_count_query(ctx), pool="interactive")
        assert excinfo.value.pool == "interactive"
        return 1

    assert server.run_query(inner, pool="interactive") == 1


def test_failed_query_is_recorded_not_raised_async(ctx):
    from repro.engine.scheduler import EngineError

    server = JobServer(ctx)

    def boom():
        raise EngineError("synthetic failure")

    record = server.submit_query(boom, name="boom")
    assert record.done and not record.ok
    assert isinstance(record.error, EngineError)
    assert server.stats.failed == 1
    with pytest.raises(EngineError):
        server.run_query(boom)


def test_slo_report_shape_and_percentiles(ctx):
    server = JobServer(ctx, ServerConfig(scheduling_policy="fair"))
    for i in range(3):
        server.run_query(_count_query(ctx), name=f"q{i}")
    report = server.slo_report()
    assert report["scheduling_policy"] == "fair"
    assert report["submitted"] == report["completed"] == 3
    pool = report["pools"]["default"]
    assert pool["queries"] == 3
    assert pool["p50_response"] <= pool["p95_response"] <= pool["p99_response"]
    assert pool["max_response"] == pool["p99_response"]


def test_percentile_nearest_rank():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.50) == 20.0
    assert percentile(values, 0.95) == 40.0
    assert percentile(values, 1.0) == 40.0
    assert percentile([5.0], 0.99) == 5.0
    assert percentile([], 0.5) is None
    with pytest.raises(ValueError):
        percentile(values, 0.0)


def test_percentile_matches_exact_rational_reference():
    """Property check against ceil(q*n) computed in exact arithmetic.

    The old ``int(q * 1000)`` truncation under-ranked every q whose float
    is the below-decimal neighbour (0.29 -> 289.99...), so p29 of 1..1000
    came back 289 instead of 290.
    """
    import math
    from fractions import Fraction

    for n in (1, 2, 3, 7, 10, 99, 100, 1000):
        values = [float(v) for v in range(1, n + 1)]
        for hundredths in range(1, 101):
            q = hundredths / 100.0
            rank = min(n, max(1, math.ceil(Fraction(hundredths, 100) * n)))
            assert percentile(values, q) == float(rank), (n, q)


def test_percentile_truncation_regression():
    values = [float(v) for v in range(1, 1001)]
    # int(0.29 * 1000) == 289: the truncation bug picked rank 289.
    assert percentile(values, 0.29) == 290.0
    assert percentile(values, 0.07) == 70.0
    assert percentile(values, 0.58) == 580.0


def test_escaping_non_engine_error_is_captured(ctx):
    """A query raising KeyError must be recorded as failed, not half-done."""
    server = JobServer(ctx)

    def boom():
        raise KeyError("missing column")

    record = server.submit_query(boom, name="boom")
    assert record.done and not record.ok
    assert isinstance(record.error, KeyError)
    assert server.stats.failed == 1
    report = server.slo_report()
    assert report["failed"] == 1
    assert report["pools"]["default"]["failed"] == 1
    # The blocking surface still re-raises the original exception.
    with pytest.raises(KeyError):
        server.run_query(boom)
    assert server.stats.failed == 2


def test_deep_queue_drains_without_stack_growth(ctx):
    """Regression: draining N queued queries must not nest N Python frames.

    The old ``_drain`` dropped its reentrancy guard around each nested
    ``_execute``, so every drained completion recursed into ``_drain``
    again — one stack frame per queued query.  The non-recursive loop keeps
    at most the holder plus one drained query on the stack at once.
    """
    depth = 400
    server = JobServer(ctx, ServerConfig(
        max_queue=depth,
        pools=(PoolConfig("interactive", max_concurrent=1),),
    ))
    frames = {"current": 0, "peak": 0}

    def tracked():
        frames["current"] += 1
        frames["peak"] = max(frames["peak"], frames["current"])
        try:
            return 1
        finally:
            frames["current"] -= 1

    def holder():
        for i in range(depth):
            server.submit_query(tracked, pool="interactive", name=f"q{i}")
        assert server.queued() == depth
        return tracked()

    record = server.submit_query(holder, pool="interactive", name="holder")
    assert record.ok
    assert server.stats.completed == depth + 1
    assert server.queued() == 0
    # Holder + at most one drained query live at once; never a recursion
    # chain through the queue.
    assert frames["peak"] <= 2


def test_rejected_query_fires_on_complete_per_reason(ctx):
    """Every admission stage's rejection fires on_complete exactly once."""
    from repro.server import TenancyConfig, TenantPolicy

    server = JobServer(ctx, ServerConfig(
        tenancy=TenancyConfig(default=TenantPolicy(rate=0.001, burst=1.0)),
    ))
    fn = _count_query(ctx)
    seen = []
    server.submit_query(fn, tenant="t", name="ok",
                        on_complete=lambda r: seen.append(r))
    throttled = server.submit_query(fn, tenant="t", name="shed",
                                    on_complete=lambda r: seen.append(r))
    assert throttled.rejected and throttled.reject_reason == "throttled"
    assert [r.name for r in seen] == ["ok", "shed"]
    assert seen[1].response is None


def test_server_configures_scheduler_pools(ctx):
    server = JobServer(ctx, ServerConfig(
        scheduling_policy="fair",
        pools=(
            PoolConfig("interactive", policy="fair", weight=4.0,
                       priority="interactive", max_concurrent=2),
            PoolConfig("batch", weight=1.0),
        ),
    ))
    assert ctx.scheduler.scheduling_policy == "fair"
    interactive = ctx.scheduler.pools["interactive"]
    assert interactive.weight == 4.0
    assert interactive.priority == "interactive"
    assert ctx.scheduler.pools["batch"].priority == "batch"
    assert server.active() == 0
