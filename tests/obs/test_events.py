"""EventBus and nearest-rank percentile unit behaviour."""

import pytest

from repro.obs import Observability, tracing_enabled_by_env
from repro.obs.events import EVENT_KINDS, EventBus, SpanEvent
from repro.obs.metrics import percentile, span_metrics, summary


def span(kind="task", name="t", start=0.0, **kw):
    return SpanEvent(kind=kind, name=name, start=start, **kw)


def test_span_duration_and_instant():
    assert span(start=2.0, end=5.5).duration == pytest.approx(3.5)
    assert span(start=2.0).duration == 0.0


def test_to_dict_omits_unset_fields():
    row = span(start=1.0).to_dict()
    assert row == {"kind": "task", "name": "t", "start": 1.0, "status": "complete"}
    full = span(
        start=1.0, end=2.0, worker="w-0", job_id=3, pool="batch",
        status="lost", attrs={"partition": 4},
    ).to_dict()
    assert full["end"] == 2.0
    assert full["worker"] == "w-0"
    assert full["job_id"] == 3
    assert full["pool"] == "batch"
    assert full["attrs"] == {"partition": 4}


def test_disabled_bus_records_nothing():
    bus = EventBus(enabled=False)
    bus.emit(span())
    assert bus.events == []
    assert bus.count() == 0


def test_enabled_bus_records_and_filters():
    bus = EventBus(enabled=True)
    bus.emit(span(kind="task", status="complete"))
    bus.emit(span(kind="task", status="lost"))
    bus.emit(span(kind="job"))
    assert bus.count() == 3
    assert bus.count("task") == 2
    assert bus.count("task", status="lost") == 1
    assert [e.kind for e in bus.by_kind("job")] == ["job"]
    bus.clear()
    assert bus.events == []


def test_bus_listeners_fire_synchronously():
    bus = EventBus(enabled=True)
    seen = []
    bus.add_listener(seen.append)
    e = span()
    bus.emit(e)
    assert seen == [e]


def test_core_kinds_are_declared():
    for kind in ("job", "task", "recompute", "query", "worker", "instance"):
        assert kind in EVENT_KINDS


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_span_metrics_reads_counters_and_samples_off_spans():
    events = [
        span("query", status="complete", pool="p", attrs={"queue_delay": 2.0}),
        span("query", status="cached", pool="p"),
        span("query", status="failed", pool="p", attrs={"queue_delay": 1.0}),
        span("query", status="rejected", pool="p", attrs={"reason": "throttled"}),
        span("instance", attrs={"market": "m", "cost": 0.5}),
        span("instance", attrs={"market": "m", "cost": 0.25}),
        span("job", pool="default", attrs={"tasks": 3, "queue_delay": 4.0}),
        span("job", pool="default", attrs={"tasks": 0, "queue_delay": None}),
        span("recompute"),
        span("task"),
    ]
    counters, samples = span_metrics(events)
    assert counters == {
        "server.queries_completed": 2,
        "server.cache_hits": 1,
        "server.queries_failed": 1,
        "server.queries_rejected": 1,
        "server.rejected.throttled": 1,
        "market.spend.m": 0.75,
        "scheduler.recomputed_partitions": 1,
    }
    assert samples == {"server.queue_delay.p": [2.0, 1.0], "pool.queue_delay.default": [4.0]}
    assert span_metrics([]) == ({}, {})


def test_summary_ladder():
    assert summary([]) == {"count": 0}
    out = summary([float(v) for v in range(1, 101)])
    assert (out["count"], out["sum"], out["min"], out["max"]) == (100, 5050.0, 1.0, 100.0)
    assert (out["mean"], out["p50"], out["p95"], out["p99"]) == (50.5, 50.0, 95.0, 99.0)


def test_histogram_nearest_rank_percentiles():
    assert percentile([], 0.5) is None
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.50) == 50.0
    assert percentile(values, 0.95) == 95.0
    assert percentile(values, 0.99) == 99.0
    assert percentile(values, 1.0) == 100.0
    with pytest.raises(ValueError):
        percentile(values, 0.0)


def test_histogram_percentile_is_the_exact_nearest_rank():
    values = [float(v) for v in range(1, 1871)]
    # ceil(0.3162 * 1870) = 592; truncating q to 316/1000 gave rank 591.
    assert percentile(values, 0.3162) == 592.0


def test_env_gating(monkeypatch):
    for off in ("", "0", "false"):
        monkeypatch.setenv("FLINT_TRACE", off)
        assert not tracing_enabled_by_env()
        assert not Observability().enabled
    monkeypatch.setenv("FLINT_TRACE", "1")
    assert tracing_enabled_by_env()
    assert Observability().enabled
    # An explicit flag beats the environment.
    assert not Observability(enabled=False).enabled


def test_observability_clock_binding():
    obs = Observability(enabled=True)
    assert obs.now() == 0.0
    obs.bind_clock(lambda: 42.5)
    assert obs.now() == 42.5
