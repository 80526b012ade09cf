"""EventBus and MetricsRegistry unit behaviour."""

import pytest

from repro.obs import Observability, tracing_enabled_by_env
from repro.obs.events import EVENT_KINDS, EventBus, SpanEvent
from repro.obs.metrics import Histogram, MetricsRegistry, percentile


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

def test_disabled_registry_is_inert():
    reg = MetricsRegistry(enabled=False)
    reg.inc("a")
    reg.set_gauge("g", 1.0)
    reg.observe("h", 1.0)
    assert reg.counter("a") == 0
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_counters_gauges_histograms():
    reg = MetricsRegistry(enabled=True)
    reg.inc("a")
    reg.inc("a", 2.5)
    reg.set_gauge("g", 1.0)
    reg.set_gauge("g", 7.0)  # gauges keep the latest value
    for v in (1.0, 2.0, 3.0, 4.0):
        reg.observe("h", v)
    assert reg.counter("a") == pytest.approx(3.5)
    snap = reg.snapshot()
    assert snap["gauges"]["g"] == 7.0
    assert snap["histograms"]["h"]["count"] == 4
    assert snap["histograms"]["h"]["mean"] == pytest.approx(2.5)


def test_histogram_nearest_rank_percentiles():
    hist = Histogram()
    assert hist.percentile(0.5) is None
    for v in range(1, 101):
        hist.observe(float(v))
    assert hist.percentile(0.50) == 50.0
    assert hist.percentile(0.95) == 95.0
    assert hist.percentile(0.99) == 99.0
    assert hist.percentile(1.0) == 100.0
    with pytest.raises(ValueError):
        hist.percentile(0.0)


def test_histogram_percentile_is_the_exact_nearest_rank():
    hist = Histogram()
    values = [float(v) for v in range(1, 1871)]
    for v in values:
        hist.observe(v)
    # ceil(0.3162 * 1870) = 592; truncating q to 316/1000 gave rank 591.
    assert hist.percentile(0.3162) == 592.0 == percentile(values, 0.3162)


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
