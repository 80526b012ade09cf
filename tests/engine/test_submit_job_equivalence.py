"""Golden equivalence: ``submit_job`` + ``wait`` vs the blocking ``run_job``.

``run_job`` is now submit-then-wait, so a single job driven through the
non-blocking surface must be bit-identical to the blocking call — same
results, same simulated runtime, same full :class:`SchedulerStats` — with
and without a mid-job revocation.  Any drift means multiplexing changed
single-job scheduling, which it must never do.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.experiments import build_engine_context

_MARKET = "od/r3.large"


def _pipeline(ctx):
    """A two-stage (shuffle) pipeline with deterministic contents."""
    source = ctx.generate(
        lambda p: [(p * 31 + i) % 97 for i in range(50)],
        num_partitions=8,
        record_size=200_000,
        name="equiv-source",
    )
    return source.key_by(lambda v: v % 7).reduce_by_key(lambda a, b: a + b)


def _run(surface, revoke_at=None):
    ctx = build_engine_context(num_workers=4, seed=0)
    rdd = _pipeline(ctx)
    if revoke_at is not None:
        def inject(_event):
            victims = ctx.cluster.live_workers()[:1]
            ctx.cluster.force_revoke(victims)
            ctx.cluster.launch(_MARKET, 0.175, count=1, delay=60.0)

        ctx.env.schedule_in(revoke_at, "inject", callback=inject)
    t0 = ctx.now
    if surface == "run_job":
        results = ctx.run_job(rdd, sorted)
    else:
        handle = ctx.submit_job(rdd, sorted, name="equiv")
        assert not handle.done
        results = handle.wait()
        assert handle.done and not handle.failed
        assert handle.makespan is not None and handle.makespan > 0
        assert handle.queue_delay is not None and handle.queue_delay >= 0
    runtime = ctx.now - t0
    return results, runtime, dataclasses.asdict(ctx.scheduler.stats)


def test_submit_job_bit_identical_to_run_job():
    run_results, run_rt, run_stats = _run("run_job")
    sub_results, sub_rt, sub_stats = _run("submit_job")
    assert sub_results == run_results
    assert sub_rt == run_rt
    assert sub_stats == run_stats


def test_submit_job_bit_identical_under_revocation():
    # Land the kill mid-job: half the failure-free runtime.
    _, base_rt, _ = _run("run_job")
    revoke_at = base_rt * 0.5
    run_results, run_rt, run_stats = _run("run_job", revoke_at)
    sub_results, sub_rt, sub_stats = _run("submit_job", revoke_at)
    assert run_stats["tasks_lost"] > 0 or run_rt > base_rt
    assert sub_results == run_results
    assert sub_rt == run_rt
    assert sub_stats == run_stats

