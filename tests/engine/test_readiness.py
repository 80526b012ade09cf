"""``Readiness`` against a cache-free reference, event by event.

The incremental resolver keeps eight structures consistent across change
events; the reference below keeps none — it re-walks the lineage from the
live block index, shuffle manager and checkpoint registry every time.  After
every event of a seeded random sequence the two must name the same frontier
in the same order.
"""

import random

import pytest

from repro.engine.block_manager import block_id_for
from repro.engine.dependencies import ShuffleDependency
from repro.engine.readiness import Readiness
from repro.engine.scheduler import SchedulerStats
from repro.engine.task import TaskKind
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
    return ctx, running, Readiness(ctx, running, SchedulerStats())


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
        # its reduce side feeds ``mid`` and then ``mid``'s maps: two narrow
        # levels of cached dependants above the shuffle's own.
        for worker_id in sm.serving_workers(deps[0].shuffle_id):
            sm.remove_outputs_on(worker_id)

    events = [block_put, block_evict, map_register, map_evict, worker_loss, shuffle_loss,
              checkpoint_write, checkpoint_discard, checkpoint_gc, straggler,
              dispatch, dispatch, dispatch, complete, complete, complete]
    # Some outputs exist before the first resolve, so the first missing-map
    # lists are not the full sets and must be rebuilt when an output is lost.
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
    assert stats.resolve_cache_hits and stats.readiness_invalidations
    assert stats.readiness_rebuilds < 2 * 400  # most reads are served memoised


def _incomplete_shuffle(ctx):
    shuffled = ctx.parallelize([(i, i) for i in range(8)], 4, record_size=100).reduce_by_key(
        lambda a, b: a + b, 2
    )
    return shuffled, shuffled.dependencies[0]


def test_needed_unchanged_same_length_is_pairwise_identity():
    ctx, _running, readiness = _harness()
    _shuffled, dep = _incomplete_shuffle(ctx)
    s0, s1 = readiness._map_spec(dep, 0), readiness._map_spec(dep, 1)
    assert readiness._needed_unchanged([s0, s1], [s0, s1])
    assert not readiness._needed_unchanged([s1, s0], [s0, s1])
    twin = type(s1)(TaskKind.SHUFFLE_MAP, dep.rdd, 1, dep=dep)  # equal key, not interned
    assert twin.key == s1.key
    assert not readiness._needed_unchanged([s0, twin], [s0, s1])


def test_needed_unchanged_tolerates_only_gaps_that_became_available():
    ctx, _running, readiness = _harness()
    _shuffled, dep = _incomplete_shuffle(ctx)
    s0, s1, s2, s3 = (readiness._map_spec(dep, m) for m in range(4))
    assert not readiness._needed_unchanged([s0, s2], [s0, s1, s2])  # map 1 still missing
    _register(ctx, dep, 1, ctx.cluster.live_workers()[0])
    assert readiness._needed_unchanged([s0, s2], [s0, s1, s2])
    assert readiness._needed_unchanged([], [s1])
    assert not readiness._needed_unchanged([s0, s2, s3], [s0, s1, s2])  # growth
    assert not readiness._needed_unchanged([s2, s0], [s0, s1, s2])  # reorder


def test_an_uncached_node_stops_the_invalidation_walk():
    ctx, _running, readiness = _harness()
    shuffled, _dep = _incomplete_shuffle(ctx)
    middle = shuffled.map(lambda kv: kv)
    top = middle.map(lambda kv: kv)
    assert readiness._resolve(top, 0)[0] is False
    stale = readiness._resolve_cache[(top.rdd_id, 0)]
    del readiness._resolve_cache[(middle.rdd_id, 0)]
    before = readiness.stats.readiness_invalidations
    # The shuffled partition turns ready: its decision changes, so the walk
    # cascades to its dependant — which is uncached, and ends the walk there.
    ctx.cluster.live_workers()[0].block_manager.put(block_id_for(shuffled.rdd_id, 0), [], 100)
    assert readiness.stats.readiness_invalidations == before + 1
    assert readiness._resolve_cache[(shuffled.rdd_id, 0)] == (True, [])
    assert readiness._resolve_cache[(top.rdd_id, 0)] is stale


@pytest.mark.parametrize("lost", ["one", "all"])
def test_losing_maps_of_one_shuffle_drops_its_dependants_once(lost):
    ctx, _running, readiness = _harness(2)
    shuffled, dep = _incomplete_shuffle(ctx)
    top = shuffled.map(lambda kv: kv).map(lambda kv: kv)
    doomed, spare = ctx.cluster.live_workers()
    for m in range(dep.num_map_partitions):
        _register(ctx, dep, m, doomed if lost == "all" or m == 0 else spare)
    for p in range(top.num_partitions):
        assert readiness._resolve(top, p)[0] is True
    before = readiness.stats.readiness_invalidations
    ctx.shuffle_manager.remove_outputs_on(doomed.worker_id)
    assert len(ctx.shuffle_manager.missing_maps(dep)) == (4 if lost == "all" else 1)
    # Three levels (shuffled, its map, top) per reduce partition, however
    # many map outputs went: the first loss drops them, the rest find
    # nothing cached.
    assert readiness.stats.readiness_invalidations - before == 3 * top.num_partitions
    assert not any(key[0] == top.rdd_id for key in readiness._resolve_cache)
    assert readiness._resolve(top, 0)[0] is False
