"""Checkpoint registry: marking, durable writes, lineage GC."""


from tests.conftest import build_on_demand_context


def test_mark_and_partition_writes():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize(list(range(8)), 4)
    reg = ctx.checkpoints
    assert not reg.is_marked(rdd)
    reg.mark(rdd)
    assert reg.is_marked(rdd)
    assert not reg.is_fully_checkpointed(rdd)
    for p in range(4):
        reg.record_write(rdd, p, [p], 100, t=1.0)
    assert reg.is_fully_checkpointed(rdd)
    assert rdd.is_checkpointed
    assert reg.partitions_written == 4
    assert reg.bytes_written == 400


def test_read_back():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize([0], 1)
    ctx.checkpoints.record_write(rdd, 0, ["data"], 64, t=0.0)
    assert ctx.checkpoints.read_partition(rdd, 0) == ["data"]
    assert ctx.checkpoints.partition_nbytes(rdd, 0) == 64


def test_unmark():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize([0], 1)
    ctx.checkpoints.mark(rdd)
    ctx.checkpoints.unmark(rdd)
    assert not ctx.checkpoints.is_marked(rdd)


def test_manual_checkpoint_api_marks_on_compute():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize(list(range(8)), 2, record_size=100).map(lambda x: x + 1)
    rdd.persist().checkpoint()
    rdd.count()
    ctx.env.run_until(ctx.now + 60)  # let async writes finish
    assert ctx.checkpoints.is_fully_checkpointed(rdd)


def test_gc_removes_ancestor_checkpoints():
    ctx = build_on_demand_context(2)
    a = ctx.parallelize(list(range(8)), 2)
    b = a.map(lambda x: x + 1)
    c = b.map(lambda x: x * 2)
    reg = ctx.checkpoints
    for p in range(2):
        reg.record_write(a, p, [p], 100, t=0.0)
        reg.record_write(b, p, [p], 100, t=0.0)
    # Checkpoint the descendant fully; ancestors become garbage.
    for p in range(2):
        reg.record_write(c, p, [p], 100, t=1.0)
    deleted = reg.gc_after_checkpoint(c)
    assert deleted == 4
    assert not reg.has_partition(a, 0)
    assert not reg.has_partition(b, 1)
    assert reg.has_partition(c, 0)
    assert reg.gc_deleted == 4


def test_gc_noop_when_descendant_incomplete():
    ctx = build_on_demand_context(2)
    a = ctx.parallelize(list(range(8)), 2)
    b = a.map(lambda x: x)
    reg = ctx.checkpoints
    reg.record_write(a, 0, [0], 100, t=0.0)
    reg.record_write(b, 0, [0], 100, t=0.0)  # b only half-checkpointed
    assert reg.gc_after_checkpoint(b) == 0
    assert reg.has_partition(a, 0)


def test_gc_notifies_listeners_even_when_dfs_already_empty():
    """GC must announce an ancestor's retirement even if its files are gone.

    When the DFS has diverged from the registry (the checkpoint files were
    deleted externally), ``delete_prefix`` finds nothing — but listeners
    still need the ``(rdd_id, None, False)`` notification and the registry
    must drop its stale ``_written`` record, or the scheduler keeps serving
    a memoised frontier that read checkpoints that no longer exist.
    """
    ctx = build_on_demand_context(2)
    a = ctx.parallelize(list(range(8)), 2)
    b = a.map(lambda x: x + 1)
    reg = ctx.checkpoints
    for p in range(2):
        reg.record_write(a, p, [p], 100, t=0.0)
    # Externally wipe a's checkpoint files: registry and DFS now disagree.
    for p in range(2):
        ctx.env.dfs.delete(reg.path_for(a.rdd_id, p))
    notifications = []
    reg.add_listener(lambda rid, part, avail: notifications.append((rid, part, avail)))
    for p in range(2):
        reg.record_write(b, p, [p], 100, t=1.0)
    deleted = reg.gc_after_checkpoint(b)
    assert deleted == 0  # nothing left on the DFS to delete...
    assert (a.rdd_id, None, False) in notifications  # ...but listeners hear it
    assert a.rdd_id not in reg.written_partitions()  # stale record cleaned


def test_stored_bytes_counts_only_checkpoints():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize([0], 1)
    ctx.env.dfs.put("other/file", None, 999)
    ctx.checkpoints.record_write(rdd, 0, [0], 100, t=0.0)
    assert ctx.checkpoints.stored_bytes == 100


def test_checkpointed_rdd_ids():
    ctx = build_on_demand_context(2)
    a = ctx.parallelize([0], 1)
    b = ctx.parallelize([1], 1)
    ctx.checkpoints.record_write(a, 0, [0], 10, t=0.0)
    ctx.checkpoints.record_write(b, 0, [1], 10, t=0.0)
    assert ctx.checkpoints.checkpointed_rdd_ids() == sorted([a.rdd_id, b.rdd_id])


def test_gc_spares_persisted_ancestors():
    """A cached (persisted) ancestor is still live — the program can branch
    new lineage from it — so its checkpoint must survive a descendant's."""
    ctx = build_on_demand_context(2)
    a = ctx.parallelize(list(range(8)), 2).persist()
    b = a.map(lambda x: x + 1)
    reg = ctx.checkpoints
    for p in range(2):
        reg.record_write(a, p, [p], 100, t=0.0)
        reg.record_write(b, p, [p], 100, t=1.0)
    assert reg.gc_after_checkpoint(b) == 0
    assert reg.has_partition(a, 0)
    a.unpersist()
    # Once unpersisted it is collectable (a fresh descendant checkpoint
    # triggers the sweep).
    c = b.map(lambda x: x)
    for p in range(2):
        reg.record_write(c, p, [p], 100, t=2.0)
    assert reg.gc_after_checkpoint(c) >= 2
    assert not reg.has_partition(a, 0)
