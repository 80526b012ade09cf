"""Scheduler internals: slot usage, timing, stats, checkpoint tasks."""

import pytest

from repro.engine.task import TaskKind, TaskSpec
from tests.conftest import build_on_demand_context


def test_parallelism_bounds_runtime():
    """8 equal tasks on 8 slots take ~1 task-duration of simulated time."""
    ctx = build_on_demand_context(4)  # 8 slots
    t0 = ctx.now
    ctx.parallelize(list(range(800)), 8, record_size=50_000).count()
    dt_parallel = ctx.now - t0
    # The same work in one partition is serialised.
    t1 = ctx.now
    ctx.parallelize(list(range(800)), 1, record_size=50_000).count()
    dt_serial = ctx.now - t1
    assert dt_serial > dt_parallel * 3


def test_more_partitions_than_slots_queue():
    ctx = build_on_demand_context(1)  # 2 slots
    t0 = ctx.now
    ctx.parallelize(list(range(80)), 8, record_size=500_000).count()
    dt = ctx.now - t0
    # 8 tasks on 2 slots: at least 4 sequential waves.
    single_task = 10 * 500_000 / ctx.cost_model.compute_bandwidth
    assert dt >= 4 * single_task


def test_task_overhead_charged():
    ctx = build_on_demand_context(4)
    t0 = ctx.now
    ctx.parallelize([1], 1, record_size=1).count()
    assert ctx.now - t0 >= ctx.cost_model.task_overhead


def test_stats_counters_accumulate():
    ctx = build_on_demand_context(2)
    ctx.scheduler.pump()  # nothing due: settling runs no round
    ctx.parallelize([(1, 1), (2, 2)], 2).reduce_by_key(lambda a, b: a).count()
    stats = ctx.scheduler.stats
    assert stats.result_tasks == 2
    assert stats.map_tasks == 2
    assert stats.tasks_completed == 4
    assert stats.task_time_total > 0
    # One round per cause (two joins, the submit, four completions): a step
    # runs none, and the completing map output's round is its completion's.
    assert stats.scheduling_rounds == 2 + 1 + 4


def test_concurrent_jobs_multiplex():
    """Two in-flight jobs share slots; both complete with correct results."""
    ctx = build_on_demand_context(2)
    a = ctx.parallelize(list(range(40)), 4, record_size=100_000)
    b = ctx.parallelize(list(range(40)), 4, record_size=100_000)
    ha = ctx.scheduler.submit_job(a, len)
    hb = ctx.scheduler.submit_job(b, len)
    assert not ha.done and not hb.done
    assert ctx.scheduler.stats.concurrent_jobs_peak >= 2
    assert sum(hb.wait()) == 40
    assert sum(ha.wait()) == 40
    assert ha.done and hb.done
    assert ha.makespan is not None and ha.makespan > 0
    assert ctx.scheduler.stats.jobs_completed >= 2


def test_submit_job_same_rdd_twice():
    """Concurrent actions over the *same* RDD must not collide in running."""
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize(list(range(40)), 4, record_size=100_000)
    h1 = ctx.scheduler.submit_job(rdd, len)
    h2 = ctx.scheduler.submit_job(rdd, sum)
    assert h1.wait() == [10, 10, 10, 10]
    assert sum(h2.wait()) == sum(range(40))


def test_enqueue_checkpoint_dedupes():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize(list(range(4)), 2, record_size=100).persist()
    rdd.count()
    spec = TaskSpec(TaskKind.CHECKPOINT, rdd, 0, data=[0, 1], nbytes=200)
    assert ctx.scheduler.enqueue_checkpoint(spec)
    assert not ctx.scheduler.enqueue_checkpoint(spec)  # duplicate


def test_enqueue_checkpoint_requires_checkpoint_kind():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize([1], 1)
    with pytest.raises(ValueError):
        ctx.scheduler.enqueue_checkpoint(TaskSpec(TaskKind.RESULT, rdd, 0))


def test_enqueue_checkpoints_for_cached_rdd_runs_async():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize(list(range(8)), 4, record_size=1000).persist()
    rdd.count()
    ctx.checkpoints.mark(rdd)
    queued = ctx.scheduler.enqueue_checkpoints_for(rdd)
    assert queued == 4
    ctx.env.run_until(ctx.now + 60)
    assert ctx.checkpoints.is_fully_checkpointed(rdd)


def test_enqueue_checkpoints_for_uncached_rdd_skips():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize(list(range(8)), 4)  # never computed/cached
    ctx.checkpoints.mark(rdd)
    assert ctx.scheduler.enqueue_checkpoints_for(rdd) == 0


def test_checkpoint_write_occupies_simulated_time():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize(list(range(8)), 2, record_size=10_000_000).persist()
    rdd.count()
    ctx.checkpoints.mark(rdd)
    ctx.scheduler.enqueue_checkpoints_for(rdd)
    ctx.env.run_until(ctx.now + 600)
    assert ctx.checkpoints.is_fully_checkpointed(rdd)
    assert ctx.scheduler.stats.checkpoint_time_total > 0


def test_remote_cache_hits_cost_network_time():
    ctx = build_on_demand_context(2)
    # Cache on whatever workers computed it, then read everything via a
    # single-partition descendant that must fetch remotely.
    rdd = ctx.parallelize(list(range(100)), 4, record_size=1_000_000).persist()
    rdd.count()
    t0 = ctx.now
    rdd.map(lambda x: (x, x)).group_by_key(1).count()
    dt = ctx.now - t0
    min_network = 100 * 1_000_000 / ctx.cost_model.network_bandwidth / 8
    assert dt > min_network / 10  # some transfer time was charged


def test_checkpoint_tasks_capped_per_worker():
    """Checkpoint writes are I/O streams: at most one per worker, so they
    degrade but never starve compute."""
    from repro.engine.task import TaskKind, TaskSpec

    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize(list(range(80)), 8, record_size=50_000_000).persist()
    rdd.count()
    ctx.checkpoints.mark(rdd)
    ctx.scheduler.enqueue_checkpoints_for(rdd)
    # Writes of 8 x 500MB at one stream per worker: at any instant at most
    # 2 checkpoint tasks run on the 2-worker cluster.
    max_seen = 0
    while ctx.scheduler._checkpoint_queue or any(
        rt.spec.kind == TaskKind.CHECKPOINT for rt in ctx.scheduler.running.values()
    ):
        concurrent = sum(
            1 for rt in ctx.scheduler.running.values()
            if rt.spec.kind == TaskKind.CHECKPOINT
        )
        max_seen = max(max_seen, concurrent)
        if ctx.env.step() is None:
            break
    assert 1 <= max_seen <= 2


def test_job_progresses_alongside_checkpoint_backlog():
    from repro.engine.task import TaskKind, TaskSpec

    ctx = build_on_demand_context(2)
    big = ctx.parallelize(list(range(80)), 8, record_size=50_000_000).persist()
    big.count()
    ctx.checkpoints.mark(big)
    ctx.scheduler.enqueue_checkpoints_for(big)
    # A fresh job must complete while the checkpoint backlog drains.
    t0 = ctx.now
    assert ctx.parallelize(list(range(100)), 4).count() == 100
    assert ctx.now - t0 < 60.0


def test_checkpoint_backlog_is_probed_once_per_round():
    """Whether a checkpoint write fits depends on the slot table, not on
    the spec: after one ``None`` the rest of the queue is not re-offered."""
    ctx = build_on_demand_context(2)
    big = ctx.parallelize(list(range(80)), 8, record_size=50_000_000).persist()
    big.count()
    ctx.checkpoints.mark(big)
    scheduler = ctx.scheduler
    pick = scheduler._pick_worker
    refused = {}  # scheduling round -> checkpoint probes answered None

    def counting_pick(spec):
        worker = pick(spec)
        if worker is None and spec.kind == TaskKind.CHECKPOINT:
            round_no = scheduler.stats.scheduling_rounds
            refused[round_no] = refused.get(round_no, 0) + 1
        return worker

    scheduler._pick_worker = counting_pick
    scheduler.enqueue_checkpoints_for(big)
    # 8 writes, one stream per worker: 6 wait while a job runs past them.
    assert ctx.parallelize(list(range(100)), 4).count() == 100
    ctx.env.run_until(ctx.now + 3600)
    assert ctx.checkpoints.is_fully_checkpointed(big)
    assert refused, "the backlog never made a probe fail"
    assert max(refused.values()) == 1


def test_terminated_worker_leaves_no_slot_entry():
    """Deliberate shutdown with tasks in flight: the worker's slot entry goes
    with it, and the stragglers' completions do not bring it back."""
    ctx = build_on_demand_context(3)
    rdd = ctx.parallelize(list(range(120)), 12, record_size=100_000)
    handle = ctx.scheduler.submit_job(rdd, len)
    victim = ctx.cluster.live_workers()[0]
    assert ctx.scheduler.busy[victim.worker_id] > 0
    ctx.cluster.terminate_worker(victim)
    assert victim.worker_id not in ctx.scheduler.busy
    assert sum(handle.wait()) == 120
    assert ctx.scheduler.stats.tasks_lost > 0
    live = {w.worker_id for w in ctx.cluster.live_workers()}
    assert set(ctx.scheduler.busy) <= live
    assert all(count == 0 for count in ctx.scheduler.busy.values())


def test_slot_table_release_rules():
    from repro.engine.slots import SlotTable

    table = SlotTable()
    table.add_worker("w")
    with pytest.raises(RuntimeError):
        table.release("w", checkpoint=False)  # live worker, nothing held
    table.acquire("w", checkpoint=True)
    with pytest.raises(KeyError):
        table.acquire("ghost", checkpoint=False)  # never joined
    table.release("w", checkpoint=True)
    with pytest.raises(RuntimeError):
        table.release("w", checkpoint=True)  # double release
    table.acquire("w", checkpoint=False)
    with pytest.raises(RuntimeError):
        table.release("w", checkpoint=True)  # holds a compute slot only
    table.forget_worker("w")
    table.release("w", checkpoint=False)  # its slots went with it: no-op
    assert "w" not in table.busy


def test_loss_in_a_timer_event_dispatches_at_that_instant():
    """Plain timers terminate an idle worker, then the holder of map 0's
    output while map 1 runs elsewhere and a worker idles: no scheduler
    callback fires, yet map 0 must rerun at once, not when map 1 ends."""
    ctx = build_on_demand_context(4)
    scheduler, shuffles = ctx.scheduler, ctx.shuffle_manager
    sizes = (10, 5000)  # map 0 finishes long before map 1
    source = ctx.generate(lambda p: list(range(sizes[p])), 2, record_size=100_000)
    counts = source.map(lambda x: (x % 3, 1)).reduce_by_key(lambda a, b: a + b, 2)
    shuffle_id = counts.dependencies[0].shuffle_id
    handle = scheduler.submit_job(counts, len)
    scheduler.pump(lambda: shuffles.map_output_available(shuffle_id, 0), "map 0")
    (holder_id,) = shuffles.serving_workers(shuffle_id)
    (sibling,) = scheduler.running.values()
    workers = ctx.cluster.workers
    idle = [w for w in workers.values() if w.worker_id not in (holder_id, sibling.worker_id)]
    assert len(idle) == 2
    gap = (sibling.started_at + sibling.duration - ctx.now) / 3
    t_kill = ctx.now + 2 * gap
    # The first kill changes nothing a frontier read, so it must leave the
    # memoised frontiers in place for the second kill's listener to drop.
    for t, victim in ((ctx.now + gap, idle[0]), (t_kill, workers[holder_id])):
        terminate = lambda _event, w=victim: ctx.cluster.terminate_worker(w)
        ctx.env.schedule_at(t, "kill", callback=terminate)
    scheduler.pump(lambda: ctx.now >= t_kill, "the holder's termination")
    assert (TaskKind.SHUFFLE_MAP.value, shuffle_id, 0) in scheduler.running
    assert sum(handle.wait()) == 3
