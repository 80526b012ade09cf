"""Job-state journalling and deterministic restart recovery."""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import build_engine_context
from repro.server import (
    JobServer,
    PoolConfig,
    ServerConfig,
    pending_queries,
    replay,
)
from repro.server.journal import JobJournal, load_events


@pytest.fixture
def ctx():
    return build_engine_context(num_workers=4, seed=0)


def _count_query(ctx, n=40, partitions=4):
    rdd = ctx.parallelize(list(range(n)), partitions)
    return lambda: rdd.count()


# ----------------------------------------------------------------------
# The journal file itself
# ----------------------------------------------------------------------
def test_journal_is_one_json_object_per_line(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with JobJournal(path) as journal:
        journal.record("submitted", name="q", pool="p", t=1.0, skipped=None)
        journal.record("finished", name="q", pool="p", t=2.0, ok=True)
    events = load_events(path)
    assert [e["event"] for e in events] == ["submitted", "finished"]
    assert "skipped" not in events[0]  # None fields are dropped
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            json.loads(line)  # every line is standalone JSON


def test_server_journals_full_lifecycle(ctx, tmp_path):
    path = str(tmp_path / "server.jsonl")
    server = JobServer(ctx, ServerConfig(journal_path=path))
    server.submit_query(_count_query(ctx), name="q0")
    server.close()
    kinds = [e["event"] for e in load_events(path)]
    assert kinds == ["submitted", "started", "finished"]
    entry = replay(path)["q0"]
    assert entry.ok and entry.finished and not entry.pending
    assert entry.result_repr == "40"
    assert pending_queries(path) == []


def test_server_journals_rejections(ctx, tmp_path):
    path = str(tmp_path / "rej.jsonl")
    server = JobServer(ctx, ServerConfig(
        max_queue=0,
        pools=(PoolConfig("interactive", max_concurrent=1),),
        journal_path=path,
    ))
    fn = _count_query(ctx)

    def inner():
        server.submit_query(fn, pool="interactive", name="shed")
        return 1

    server.submit_query(inner, pool="interactive", name="holder")
    server.close()
    entry = replay(path)["shed"]
    assert entry.rejected and entry.finished and not entry.pending
    assert entry.error == "queue-full"


def test_replay_last_submission_wins(tmp_path):
    path = str(tmp_path / "dup.jsonl")
    with JobJournal(path) as journal:
        journal.record("submitted", name="q", pool="p", t=1.0)
        # Crash here; a later recovery pass re-submits and finishes it.
        journal.record("submitted", name="q", pool="p", t=9.0)
        journal.record("started", name="q", pool="p", t=9.0)
        journal.record("finished", name="q", pool="p", t=10.0, ok=True)
    entry = replay(path)["q"]
    assert entry.submitted_at == 9.0 and entry.ok
    assert pending_queries(path) == []


def _tear(path, fragment='{"event":"submitted","name":"q2"'):
    """The crash lands mid-write: a record with no line end."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(fragment)


def test_a_torn_last_line_is_not_replayed(ctx, tmp_path):
    path = str(tmp_path / "torn.jsonl")
    with JobJournal(path) as journal:
        journal.record("submitted", name="q0", pool="default", t=1.0)
        journal.record("submitted", name="q1", pool="default", t=2.0)
    _tear(path)
    assert [e["name"] for e in load_events(path)] == ["q0", "q1"]
    assert [e.name for e in pending_queries(path)] == ["q0", "q1"]
    # The crash resume() exists for: it finishes what made it to a line end.
    server = JobServer(ctx, ServerConfig(journal_path=path))
    resumed = server.resume({"q0": _count_query(ctx), "q1": _count_query(ctx)})
    server.close()
    assert [(r.name, r.ok) for r in resumed] == [("q0", True), ("q1", True)]
    assert pending_queries(path) == []


def test_reopening_cuts_the_torn_tail_and_a_corrupt_line_is_loud(tmp_path):
    path = str(tmp_path / "reopen.jsonl")
    with JobJournal(path) as journal:
        journal.record("submitted", name="q0", pool="p", t=1.0)
    _tear(path)
    with JobJournal(path) as journal:
        journal.record("finished", name="q0", pool="p", t=2.0, ok=True)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    assert lines[-1] == ""
    assert [json.loads(line)["event"] for line in lines[:-1]] == ["submitted", "finished"]
    # A complete line that does not parse is damage, not a torn write.
    _tear(path, "not json\n")
    with pytest.raises(ValueError, match=r"reopen\.jsonl.*line 3"):
        load_events(path)


def test_resume_requires_journal(ctx):
    server = JobServer(ctx)
    with pytest.raises(RuntimeError):
        server.resume({})


# ----------------------------------------------------------------------
# Golden restart equivalence
# ----------------------------------------------------------------------
QUERY_SPECS = {
    "count-small": (30, 3),
    "count-wide": (48, 6),
    "count-large": (200, 4),
}


def _registry(ctx):
    registry = {}
    for name, (n, parts) in QUERY_SPECS.items():
        rdd = ctx.parallelize(list(range(n)), parts)
        registry[name] = (lambda r: lambda: (r.count(), sum(r.collect())))(rdd)
    return registry


def _uninterrupted_results():
    ctx = build_engine_context(num_workers=4, seed=3)
    server = JobServer(ctx, ServerConfig(
        pools=(PoolConfig("interactive"),),
    ))
    registry = _registry(ctx)
    return {
        name: server.submit_query(fn, pool="interactive", name=name).result
        for name, fn in registry.items()
    }


def _crash_then_resume(path):
    """Journal three admitted-but-unfinished queries, then recover them.

    The 'crash' leaves the queries stuck behind a zero-capacity pool: they
    were admitted and journalled but never ran — exactly the state a real
    server loses when its process dies with work queued.
    """
    crash_ctx = build_engine_context(num_workers=4, seed=3)
    crashed = JobServer(crash_ctx, ServerConfig(
        pools=(PoolConfig("interactive", max_concurrent=0),),
        journal_path=path,
    ))
    for name, fn in _registry(crash_ctx).items():
        record = crashed.submit_query(fn, pool="interactive", name=name)
        assert not record.done  # queued: admitted but never finished
    crashed.close()  # the process dies; queued work is dropped

    stuck = pending_queries(path)
    assert [e.name for e in stuck] == list(QUERY_SPECS)

    ctx = build_engine_context(num_workers=4, seed=3)
    server = JobServer(ctx, ServerConfig(
        pools=(PoolConfig("interactive"),),
        journal_path=path,
    ))
    resumed = server.resume(_registry(ctx))
    server.close()
    assert all(r.done and r.ok for r in resumed)
    return {r.name: r.result for r in resumed}, [
        (r.name, r.finished_at) for r in resumed
    ]


def test_restart_equivalence_golden(tmp_path):
    """A restarted server finishes the dropped queries bit-identically."""
    results, _ = _crash_then_resume(str(tmp_path / "a.jsonl"))
    assert results == _uninterrupted_results()
    # Post-resume, the journal shows every query finished: a second restart
    # would have nothing to do.
    assert pending_queries(str(tmp_path / "a.jsonl")) == []


def test_restart_recovery_is_deterministic(tmp_path):
    """Two independent crash+resume passes agree byte-for-byte."""
    first = _crash_then_resume(str(tmp_path / "a.jsonl"))
    second = _crash_then_resume(str(tmp_path / "b.jsonl"))
    assert first == second  # results AND simulated finish times


def test_resume_skips_unregistered_names(ctx, tmp_path):
    path = str(tmp_path / "skip.jsonl")
    with JobJournal(path) as journal:
        journal.record("submitted", name="known", pool="default", t=1.0)
        journal.record("submitted", name="forgotten", pool="default", t=2.0)
    server = JobServer(ctx, ServerConfig(journal_path=path))
    resumed = server.resume({"known": _count_query(ctx)})
    server.close()
    assert [r.name for r in resumed] == ["known"]
    assert resumed[0].ok
