"""Seeded open/closed-loop clients and policy-dependent latency ordering."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import build_engine_context
from repro.server import (
    ClosedLoopClient,
    JobServer,
    OpenLoopClient,
    PoolConfig,
    ServerConfig,
)


def _drive_to_completion(server, *clients):
    server.scheduler.pump(lambda: all(c.finished for c in clients), "clients")


def _make_server(seed=0, policy="fair", **config_kwargs):
    ctx = build_engine_context(num_workers=4, seed=seed)
    server = JobServer(ctx, ServerConfig(
        scheduling_policy=policy,
        pools=(
            PoolConfig("interactive", weight=4.0, priority="interactive"),
            PoolConfig("batch", weight=1.0),
        ),
        **config_kwargs,
    ))
    return ctx, server


def _query(ctx):
    rdd = ctx.parallelize(list(range(60)), 4, record_size=1_000_000)
    return lambda: rdd.count()


def test_closed_loop_issues_sequentially():
    ctx, server = _make_server()
    client = ClosedLoopClient(
        server, _query(ctx), pool="interactive", name="c",
        think_time=5.0, max_queries=4, master_seed=9,
    )
    client.start(delay=1.0)
    _drive_to_completion(server, client)
    assert client.issued == 4
    assert len(client.records) == 4
    assert all(r.ok for r in client.records)
    # One outstanding query at a time: arrivals are ordered by completions.
    arrivals = [r.arrived_at for r in client.records]
    finishes = [r.finished_at for r in client.records]
    for next_arrival, prev_finish in zip(arrivals[1:], finishes):
        assert next_arrival >= prev_finish


def test_closed_loop_is_deterministic():
    def run():
        ctx, server = _make_server(seed=3)
        client = ClosedLoopClient(
            server, _query(ctx), pool="interactive", name="c",
            think_time=7.0, max_queries=5, master_seed=3,
        )
        client.start()
        _drive_to_completion(server, client)
        return [(r.arrived_at, r.finished_at) for r in client.records]

    assert run() == run()


def test_open_loop_arrivals_ignore_completions():
    ctx, server = _make_server()
    client = OpenLoopClient(
        server, _query(ctx), rate=0.5, pool="interactive", name="o",
        max_queries=6, master_seed=11,
    )
    client.start()
    _drive_to_completion(server, client)
    assert client.issued == 6
    assert len(client.records) == 6
    # Interarrival gaps come from the seeded stream, not from latencies:
    # re-running with a slower query must reproduce the same arrival times.
    ctx2, server2 = _make_server()
    slow_rdd = ctx2.parallelize(list(range(60)), 4).map(
        lambda x: x, compute_multiplier=50.0
    )
    client2 = OpenLoopClient(
        server2, lambda: slow_rdd.count(), rate=0.5, pool="interactive",
        name="o", max_queries=6, master_seed=11,
    )
    client2.start()
    _drive_to_completion(server2, client2)
    # Records append in completion order, so compare the arrival sets.
    assert (sorted(r.arrived_at for r in client2.records)
            == sorted(r.arrived_at for r in client.records))


def test_open_loop_rejects_bad_rate():
    ctx, server = _make_server()
    with pytest.raises(ValueError):
        OpenLoopClient(server, _query(ctx), rate=0.0)


def test_closed_loop_retries_rejection_with_backoff():
    """A shed query is retried after seeded backoff, not silently dropped.

    The old client treated a rejection like a completion: the shed query
    burned one of ``max_queries`` and the client moved on, so a client at a
    loaded front door quietly under-issued.  With a policy, the same
    logical query re-submits until admitted (or retries exhaust).
    """
    from repro.server import RetryPolicy, TenancyConfig, TenantPolicy

    ctx, server = _make_server(
        seed=5,
        # Refill is slow enough that back-to-back arrivals throttle, fast
        # enough that one backoff later a token exists again.
        tenancy=TenancyConfig(default=TenantPolicy(rate=0.05, burst=1.0)),
    )
    client = ClosedLoopClient(
        server, _query(ctx), pool="interactive", name="c",
        think_time=2.0, max_queries=4, master_seed=5, tenant="t",
        retry_policy=RetryPolicy(base_delay=30.0, jitter=0.25, max_attempts=4),
    )
    client.start(delay=1.0)
    _drive_to_completion(server, client)
    assert client.issued == 4
    assert client.retries > 0
    assert client.gave_up == 0
    completed = [r for r in client.records if r.ok]
    assert len(completed) == 4  # every logical query eventually served
    shed = [r for r in client.records if r.rejected]
    assert len(shed) == client.retries
    assert all(r.reject_reason == "throttled" for r in shed)
    # Retry attempts are named so the journal and SLO records stay distinct.
    assert any("-r1" in r.name for r in shed + completed)


def test_closed_loop_retry_schedule_is_deterministic():
    from repro.server import RetryPolicy, TenancyConfig, TenantPolicy

    def run():
        ctx, server = _make_server(
            seed=5,
            tenancy=TenancyConfig(default=TenantPolicy(rate=0.05, burst=1.0)),
        )
        client = ClosedLoopClient(
            server, _query(ctx), pool="interactive", name="c",
            think_time=2.0, max_queries=4, master_seed=5, tenant="t",
            retry_policy=RetryPolicy(base_delay=30.0, jitter=0.25,
                                     max_attempts=4),
        )
        client.start(delay=1.0)
        _drive_to_completion(server, client)
        return (
            client.retries,
            [(r.name, r.arrived_at, r.finished_at, r.rejected)
             for r in client.records],
        )

    assert run() == run()


def test_closed_loop_gives_up_after_max_attempts():
    from repro.server import RetryPolicy, TenancyConfig, TenantPolicy

    ctx, server = _make_server(
        seed=2,
        # One token ever (rate is per ~17 simulated minutes): the second
        # logical query exhausts its retries long before a refill.
        tenancy=TenancyConfig(default=TenantPolicy(rate=0.001, burst=1.0)),
    )
    client = ClosedLoopClient(
        server, _query(ctx), pool="interactive", name="c",
        think_time=2.0, max_queries=2, master_seed=2, tenant="t",
        retry_policy=RetryPolicy(base_delay=5.0, jitter=0.0, max_attempts=2),
    )
    client.start(delay=1.0)
    _drive_to_completion(server, client)
    assert client.issued == 2
    assert client.gave_up >= 1
    assert client.retries == 2 * client.gave_up
    assert client.finished


def test_fair_beats_fifo_for_interactive_latency():
    """A query arriving mid-batch waits out the batch stage under FIFO but
    jumps to the head under fair scheduling with an interactive pool."""

    def run(policy):
        ctx, server = _make_server(policy=policy)
        # Oversubscribed batch stage: 64 tasks on 8 slots, ~34 simulated s.
        batch_rdd = ctx.parallelize(
            list(range(640)), 64, record_size=1_000_000
        ).map(lambda x: x, compute_multiplier=20.0)
        client = ClosedLoopClient(
            server, _query(ctx), pool="interactive", name="probe",
            think_time=5.0, max_queries=3, master_seed=1,
        )
        client.start(delay=1.0)
        server.run_query(lambda: batch_rdd.count(), pool="batch", name="batch")
        _drive_to_completion(server, client)
        return server.slo_report()["pools"]["interactive"]["p95_response"]

    fifo_p95 = run("fifo")
    fair_p95 = run("fair")
    assert fair_p95 < fifo_p95
