"""Fused narrow-chain execution: engagement, boundaries, and sizing memo.

These tests drive synthetic multi-operator chains (the paper workloads'
narrow stages are all single-operator, so fusion is a no-op there) and pin
down every pipeline-breaker the fusion walk must respect: persisted or
cached partitions, checkpointed parents, shuffle inputs, and shared
(multi-dependent) nodes.  Each pipeline's results and simulated clock are
also frozen as a ``chain/<name>`` row of ``golden_engine.json``
(``test_engine_golden.py`` imports :data:`PIPELINES`), captured while the
per-RDD recursion still existed to agree with them.
"""

from __future__ import annotations

import pytest

from tests.conftest import build_on_demand_context


def multi_op(ctx):
    base = ctx.parallelize(list(range(200)), 4, record_size=100)
    chain = (
        base.map(lambda x: x + 1)
        .filter(lambda x: x % 2 == 0)
        .map(lambda x: (x % 7, x))
    )
    return chain.collect()


def persisted_mid_chain(ctx):
    base = ctx.parallelize(list(range(120)), 4, record_size=100)
    mid = base.map(lambda x: x * 2).map(lambda x: x + 3).persist()
    head = mid.map(lambda x: (x % 5, x)).filter(lambda kv: kv[0] != 1)
    first = head.collect()
    # The persisted node must actually materialise into the cache —
    # fusing through it would starve every later consumer.
    assert ctx.cached_partition_count(mid) == 4
    second = head.collect()
    mid.unpersist()
    assert ctx.cached_partition_count(mid) == 0
    third = head.collect()
    return first, second, third


def checkpointed_parent(ctx):
    base = ctx.parallelize(list(range(80)), 2, record_size=100)
    mid = base.map(lambda x: x + 10).map(lambda x: x * 3)
    mid.persist().checkpoint()
    mid.count()
    ctx.env.run_until(ctx.now + 60)  # let async checkpoint writes land
    assert ctx.checkpoints.is_fully_checkpointed(mid)
    # Drop the cache so the next read must come from the checkpoint,
    # not from a re-fused recompute of mid's lineage.
    mid.unpersist()
    head = mid.map(lambda x: x - 1).map(lambda x: (x % 4, x))
    return head.collect()


def union_chain(ctx):
    left = ctx.parallelize(list(range(60)), 2, record_size=100).map(
        lambda x: x * 2
    )
    right = ctx.parallelize(list(range(60, 120)), 2, record_size=100).map(
        lambda x: x * 5
    )
    merged = left.union(right).map(lambda x: x + 1).filter(lambda x: x % 3 != 0)
    return merged.collect()


def shared_node(ctx):
    """A node with two dependants must memoise, not re-stream per consumer."""
    base = ctx.parallelize(list(range(40)), 2, record_size=100)
    shared = base.map(lambda x: x + 1).map(lambda x: x * 2)
    combined = shared.map(lambda x: x + 100).union(shared.map(lambda x: -x))
    return sorted(combined.collect())


#: name -> (pipeline, fused_chains, fused_stages) on a 4-worker context.
PIPELINES = {
    # One fused pass per partition, covering all three chained operators.
    "multi_op": (multi_op, 4, 12),
    # While mid is persisted the chain breaks there: run 1 fuses the head's
    # two operators and mid's own two on first materialisation; run 2 fuses
    # only the head again (mid now served from cache).  After unpersist,
    # run 3 streams all four operators in one pass from the source.
    "persisted_mid_chain": (
        persisted_mid_chain, (4 + 4) + 4 + 4, (4 * 2 + 4 * 2) + 4 * 2 + 4 * 4,
    ),
    # The first action fuses mid's two operators; the second fuses only
    # head's two — the checkpointed parent resolves through the registry
    # (2 partitions, 2-stage chains).
    "checkpointed_parent": (checkpointed_parent, 2 + 2, 2 * 2 + 2 * 2),
    # Each union output partition covers exactly one parent partition, so
    # the chain fuses across the union into the contributing side:
    # filter -> map -> union -> side map = 4 stages on all 4 partitions.
    "union_chain": (union_chain, 4, 16),
    # Each of the 4 union partitions fuses union -> side map and stops at
    # the shared node, whose own two operators then fuse once per task.
    "shared_node": (shared_node, 4 + 4, 4 * 2 + 4 * 2),
}


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_chain_fuses_up_to_its_boundaries(name):
    pipeline, chains, stages = PIPELINES[name]
    ctx = build_on_demand_context(4)
    pipeline(ctx)
    stats = ctx.scheduler.stats
    assert (stats.fused_chains, stats.fused_stages) == (chains, stages)


def test_record_size_memo_counters():
    ctx = build_on_demand_context(2)
    base = ctx.parallelize(list(range(10)), 2, record_size=96)
    tail = base.map(lambda x: x).map(lambda x: x).map(lambda x: x)
    hits0, misses0 = ctx.record_size_memo_hits, ctx.record_size_memo_misses
    assert tail.record_size == 96
    misses_after_walk = ctx.record_size_memo_misses
    assert misses_after_walk > misses0  # first consult walks the lineage
    assert tail.record_size == 96
    assert ctx.record_size_memo_hits > hits0  # second consult is a dict read
    assert ctx.record_size_memo_misses == misses_after_walk
    # A new hint bumps the sizing epoch: stale memoised answers must not
    # survive, and the chain re-inherits the new value.
    base.set_record_size(64)
    assert tail.record_size == 64


def test_set_record_size_mid_chain_invalidates_descendants():
    ctx = build_on_demand_context(2)
    base = ctx.parallelize(list(range(10)), 2, record_size=50)
    mid = base.map(lambda x: x)
    tail = mid.map(lambda x: x)
    assert tail.record_size == 50
    mid.set_record_size(200)
    assert tail.record_size == 200
    assert base.record_size == 50  # ancestors keep their own hint
