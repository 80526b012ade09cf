"""``Readiness`` against a memo-free reference, event by event.

``Readiness`` memoises each job's frontier and drops it only on an event
that touches what the walk read; the reference below remembers nothing — it
re-walks the lineage from the live block index, shuffle manager and
checkpoint registry every time.  After every event of a seeded random
sequence the two must name the same frontier in the same order.  Directed
tests pin each read-set rule, and that nothing is retained once no job is
in flight.
"""

import functools
import random

import pytest

from repro.analysis.experiments import build_engine_context
from repro.engine.block_manager import block_id_for
from repro.engine.dependencies import ShuffleDependency
from repro.engine.readiness import Readiness
from repro.engine.scheduler import SchedulerStats
from repro.engine.task import TaskKind
from repro.server.scenario import run_multitenant
from repro.streaming import StreamingWordCountWorkload
from tests.conftest import build_on_demand_context, flat_output

MAP, RESULT = TaskKind.SHUFFLE_MAP.value, TaskKind.RESULT.value


def reference_frontier(ctx, running, job):
    """Keys of ``job``'s ready tasks by a depth-first walk with no memory."""
    sm = ctx.shuffle_manager

    def resolve(rdd, p):
        if ctx.block_exists(rdd, p) or ctx.checkpoints.has_partition(rdd, p):
            return True, []
        ready, needed = True, []
        for dep in rdd.dependencies:
            if isinstance(dep, ShuffleDependency):
                sid = dep.shuffle_id
                missing = [m for m in range(dep.num_map_partitions)
                           if not sm.map_output_available(sid, m)]
                ready = ready and not missing
                needed += [((MAP, sid, m), dep.rdd, m) for m in missing]
            else:
                for parent in dep.parents_of(p):
                    sub_ready, sub_needed = resolve(dep.rdd, parent)
                    ready = ready and sub_ready
                    needed += sub_needed
        return ready, needed

    frontier, visited = [], set()
    stack = [((RESULT, job.rdd.rdd_id, p, job.job_id), job.rdd, p)
             for p in range(job.rdd.num_partitions) if not job.has_result(p)]
    while stack:
        key, rdd, p = stack.pop()
        if key in visited:
            continue
        visited.add(key)
        if key in running:
            continue
        ready, needed = resolve(rdd, p)
        if ready:
            frontier.append(key)
        else:
            stack.extend(needed)
    return frontier


class _Job:
    """The slice of a job handle that ``Readiness`` reads."""

    def __init__(self, job_id, rdd):
        self.job_id, self.rdd, self.func = job_id, rdd, len
        self.delivered = set()

    def has_result(self, partition):
        return partition in self.delivered


def _harness(num_workers=3):
    ctx = build_on_demand_context(num_workers)
    running = {}
    return ctx, running, Readiness(ctx, running, SchedulerStats(), lambda: None)


def _graph(ctx):
    """Two shuffles, a cogroup with one narrow side, a union, persisted nodes."""
    pairs = [(i % 7, i) for i in range(64)]
    src = ctx.parallelize(pairs, 4, record_size=100).persist()
    summed = src.map(lambda kv: kv).reduce_by_key(lambda a, b: a + b, 3)
    mid = summed.map(lambda kv: (kv[0] % 3, kv[1])).persist()
    grouped = mid.group_by_key(3)
    other = ctx.parallelize([(k, -k) for k in range(3)], 2, record_size=100)
    joined = grouped.cogroup(other, 3).map(lambda kv: kv)
    return joined.union(mid.map(lambda kv: kv)), mid


def _lineage(rdd):
    rdds, deps, stack = {}, {}, [rdd]
    while stack:
        node = stack.pop()
        if node.rdd_id in rdds:
            continue
        rdds[node.rdd_id] = node
        for dep in node.dependencies:
            if isinstance(dep, ShuffleDependency):
                deps[dep.shuffle_id] = dep
            stack.append(dep.rdd)
    return [rdds[i] for i in sorted(rdds)], [deps[i] for i in sorted(deps)]


def _register(ctx, dep, map_id, worker):
    buckets = [[(map_id, r)] for r in range(dep.num_reduce_partitions)]
    ctx.shuffle_manager.register_map_output(dep, map_id, worker, flat_output(buckets), 100)


@pytest.mark.parametrize("seed", range(6))
def test_frontier_matches_reference_after_every_event(seed):
    ctx, running, readiness = _harness()
    target, mid = _graph(ctx)
    jobs = [_Job(0, target), _Job(1, mid.map(lambda kv: kv))]
    rdds, deps = _lineage(target)
    rng = random.Random(seed)
    workers = ctx.cluster.live_workers()
    sm, registry = ctx.shuffle_manager, ctx.checkpoints
    frontiers = {}

    def block_put():
        rdd = rng.choice(rdds)
        p = rng.randrange(rdd.num_partitions)
        rng.choice(workers).block_manager.put(block_id_for(rdd.rdd_id, p), [], 100)

    def block_evict():
        worker = rng.choice(workers)
        held = ctx.block_index.blocks_on(worker.worker_id)
        if held:
            worker.block_manager.remove(rng.choice(sorted(held)))

    def map_register():
        dep = rng.choice(deps)
        _register(ctx, dep, rng.randrange(dep.num_map_partitions), rng.choice(workers))

    def map_evict():
        worker = rng.choice(workers)
        sm._evict_local_state(worker, worker.local_disk.free_bytes + 1, keep_key="")

    def worker_loss():
        sm.remove_outputs_on(rng.choice(workers).worker_id)

    def checkpoint_write():
        rdd = rng.choice(rdds)
        registry.record_write(rdd, rng.randrange(rdd.num_partitions), [], 100, ctx.now)

    def checkpoint_discard():
        rdd = rng.choice(rdds)
        registry.discard_partition(rdd, rng.randrange(rdd.num_partitions))

    def checkpoint_gc():
        rdd = rng.choice(rdds)
        for p in range(rdd.num_partitions):
            registry.record_write(rdd, p, [], 100, ctx.now)
        registry.gc_after_checkpoint(rdd)

    def dispatch():
        ready = [s for job in jobs for s in frontiers[job.job_id]]
        if ready:
            spec = rng.choice(ready)
            running[spec.key] = spec
            readiness.dispatched(spec.key)

    def complete():
        if not running:
            return
        spec = running.pop(rng.choice(sorted(running)))
        if spec.kind == TaskKind.RESULT:
            jobs[spec.job_id].delivered.add(spec.partition)
        else:
            _register(ctx, spec.dep, spec.partition, rng.choice(workers))

    def straggler():
        if running:
            del running[rng.choice(sorted(running))]
            readiness.lost()

    def shuffle_loss():
        # Every map output of the first shuffle goes, one loss event per map;
        # its reduce side feeds ``mid`` and then ``mid``'s maps.
        for worker_id in sm.serving_workers(deps[0].shuffle_id):
            sm.remove_outputs_on(worker_id)

    events = [block_put, block_evict, map_register, map_evict, worker_loss, shuffle_loss,
              checkpoint_write, checkpoint_discard, checkpoint_gc, straggler,
              dispatch, dispatch, dispatch, complete, complete, complete]
    # Some outputs exist before the first walk, so its missing-map lists are
    # not the full sets.
    for dep in deps:
        for m in rng.sample(range(dep.num_map_partitions), 2):
            _register(ctx, dep, m, rng.choice(workers))
    for step in range(400):
        for job in jobs:
            frontiers[job.job_id] = readiness.frontier(job)
        event = rng.choice(events)
        event()
        for job in jobs:
            got = [spec.key for spec in readiness.frontier(job)]
            want = reference_frontier(ctx, running, job)
            assert got == want, f"seed {seed} step {step} after {event.__name__}, job {job.job_id}"
    stats = readiness.stats
    # ``mid`` is reached both through the union and through its shuffle's
    # maps: the per-walk memo answers the second path.
    assert stats.resolve_cache_hits and stats.readiness_invalidations
    assert stats.readiness_rebuilds < 2 * 400  # most reads are served memoised


def _incomplete_shuffle(ctx):
    shuffled = ctx.parallelize([(i, i) for i in range(8)], 4, record_size=100).reduce_by_key(
        lambda a, b: a + b, 2
    )
    return shuffled, shuffled.dependencies[0]




def _keys(readiness, job):
    return [spec.key for spec in readiness.frontier(job)]


def _rebuilds_after(readiness, job, event):
    """Rebuilds the next read of ``job``'s frontier pays for ``event``."""
    readiness.frontier(job)
    before = readiness.stats.readiness_rebuilds
    event()
    readiness.frontier(job)
    return readiness.stats.readiness_rebuilds - before


def test_an_add_rebuilds_only_on_a_node_read_as_blocked():
    ctx, running, readiness = _harness()
    shuffled, dep = _incomplete_shuffle(ctx)
    job = _Job(0, shuffled.map(lambda kv: kv))
    worker = ctx.cluster.live_workers()[0]

    def put(rdd, p):
        return lambda: worker.block_manager.put(block_id_for(rdd.rdd_id, p), [], 100)

    unread = ctx.parallelize([1], 1, record_size=100)
    assert _rebuilds_after(readiness, job, put(unread, 0)) == 0
    # The map side's input was read, as ready: it stays ready.
    assert _rebuilds_after(readiness, job, put(dep.rdd, 0)) == 0
    # shuffled[0] was read as blocked on the shuffle: its result turns ready.
    assert _rebuilds_after(readiness, job, put(shuffled, 0)) == 1
    assert (RESULT, job.rdd.rdd_id, 0, 0) in _keys(readiness, job)
    assert _keys(readiness, job) == reference_frontier(ctx, running, job)


def test_removing_one_of_two_holders_of_a_stored_block_keeps_the_frontier():
    ctx, running, readiness = _harness()
    shuffled, _dep = _incomplete_shuffle(ctx)
    job = _Job(0, shuffled.map(lambda kv: kv))
    block = block_id_for(shuffled.rdd_id, 0)
    first, second = ctx.cluster.live_workers()[:2]
    for worker in (first, second):
        worker.block_manager.put(block, [], 100)
    assert (RESULT, job.rdd.rdd_id, 0, 0) in _keys(readiness, job)
    assert _rebuilds_after(readiness, job, lambda: first.block_manager.remove(block)) == 0
    assert _rebuilds_after(readiness, job, lambda: second.block_manager.remove(block)) == 1
    assert (RESULT, job.rdd.rdd_id, 0, 0) not in _keys(readiness, job)
    assert _keys(readiness, job) == reference_frontier(ctx, running, job)


def test_checkpoint_gc_of_a_stored_ancestor_rewalks_to_its_lost_shuffle():
    ctx, running, readiness = _harness(2)
    shuffled, dep = _incomplete_shuffle(ctx)
    registry, sm = ctx.checkpoints, ctx.shuffle_manager
    mid = shuffled.map(lambda kv: kv)  # checkpointed but not persisted: collectable
    job = _Job(0, mid.map(lambda kv: kv))
    sibling = mid.map(lambda kv: kv)  # checkpointing it makes mid's checkpoint garbage
    doomed, _spare = ctx.cluster.live_workers()
    for m in range(dep.num_map_partitions):
        _register(ctx, dep, m, doomed)
    for p in range(mid.num_partitions):
        registry.record_write(mid, p, [], 100, ctx.now)
    results = [(RESULT, job.rdd.rdd_id, p, 0) for p in reversed(range(job.rdd.num_partitions))]
    assert _keys(readiness, job) == results
    sm.remove_outputs_on(doomed.worker_id)  # mid's checkpoint still covers the loss
    assert _keys(readiness, job) == results
    for p in range(sibling.num_partitions):
        registry.record_write(sibling, p, [], 100, ctx.now)
    assert _rebuilds_after(readiness, job, lambda: registry.gc_after_checkpoint(sibling)) == 1
    maps = _keys(readiness, job)
    assert sorted(maps) == [(MAP, dep.shuffle_id, m) for m in range(dep.num_map_partitions)]
    assert maps == reference_frontier(ctx, running, job)


def _retained(readiness):
    """Entries in every ``Readiness`` structure but the scheduler's ``_running``."""
    return {
        name: len(value)
        for name, value in vars(readiness).items()
        if isinstance(value, (dict, set, list)) and name != "_running"
    }


def test_no_readiness_state_outlives_the_jobs():
    ctx = build_engine_context(num_workers=4, seed=0)
    StreamingWordCountWorkload(
        ctx, lines_per_batch=40, partitions=4, num_batches=100, seed=23,
        checkpointing=True, initial_delta=20.0, max_tau=60.0,
    ).run()
    assert ctx.scheduler.stats.jobs_completed >= 100
    contexts = [ctx]
    run_multitenant(policy="fair", num_workers=4, seed=1234, queries=2,
                    context_hook=contexts.append)
    for context in contexts:
        assert not context.scheduler._jobs
        retained = _retained(context.scheduler.readiness)
        assert {"_frontiers", "_root_specs", "_stored", "_blocked", "_waiting"} <= set(retained)
        assert not any(retained.values()), retained


def test_only_the_registration_completing_a_waiting_shuffle_rebuilds():
    ctx, running, readiness = _harness()
    shuffled, dep = _incomplete_shuffle(ctx)
    job = _Job(0, shuffled.map(lambda kv: kv))
    worker = ctx.cluster.live_workers()[0]
    *first, last = range(dep.num_map_partitions)
    register = functools.partial(_register, ctx, dep)
    for m in first:  # each registration only pops its own map spec
        assert _rebuilds_after(readiness, job, functools.partial(register, m, worker)) == 0
        assert (MAP, dep.shuffle_id, m) not in _keys(readiness, job)
    assert _rebuilds_after(readiness, job, functools.partial(register, last, worker)) == 1
    assert _keys(readiness, job) == reference_frontier(ctx, running, job)
    assert all(key[0] == RESULT for key in _keys(readiness, job))
