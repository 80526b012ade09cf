"""The micro-batch driver: pacing, latency accounting, observability."""

from __future__ import annotations

import pytest

from repro.faults.harness import build_fault_context
from repro.obs.export import to_chrome_trace
from repro.streaming import StreamingContext, StreamingIdentityWorkload


def test_identity_counts_match_source(ctx):
    workload = StreamingIdentityWorkload(
        ctx, records_per_batch=800, partitions=8, num_batches=4,
    )
    assert workload.run() == workload.expected() == (800,) * 4


def test_fixed_rate_schedules_on_the_interval_grid(ctx):
    ssc = StreamingContext(ctx, 30.0)
    ssc.rate_stream(400, 4).count_per_batch("n")
    start = ctx.now
    infos = ssc.run(4)
    for b, info in enumerate(infos):
        assert info.scheduled == pytest.approx(start + b * 30.0)
        assert info.started == pytest.approx(info.scheduled)
        assert info.latency == pytest.approx(info.finished - info.scheduled)
        assert 0 < info.latency < 30.0  # keeping up with the stream
        assert info.records == 400
    # The driver idles until each deadline — it never runs ahead of it.
    assert ctx.now == pytest.approx(infos[-1].finished)


def test_fixed_rate_latency_absorbs_queueing_delay(ctx):
    # A source that takes longer than the interval to process falls behind;
    # later batches start late and their latency exceeds the interval.
    ssc = StreamingContext(ctx, 1.0)
    ssc.rate_stream(4000, 8).count_per_batch("n")
    infos = ssc.run(3)
    assert infos[1].started > infos[1].scheduled
    assert infos[2].latency > infos[1].latency > infos[0].latency
    assert infos[2].latency > 1.0


def test_fixed_delay_idles_one_interval_per_batch(ctx):
    ssc = StreamingContext(ctx, 30.0, pacing="fixed-delay")
    ssc.rate_stream(400, 4).count_per_batch("n")
    infos = ssc.run(3)
    for info in infos:
        assert info.scheduled == pytest.approx(info.started)
    gaps = [
        infos[b + 1].started - infos[b].finished for b in range(len(infos) - 1)
    ]
    assert all(gap == pytest.approx(30.0) for gap in gaps)
    # The trailing idle after the last batch is part of the discipline
    # (bit-identity with the legacy hand-rolled loop depends on it).
    assert ctx.now == pytest.approx(infos[-1].finished + 30.0)


def test_sustained_records_per_second(ctx):
    ssc = StreamingContext(ctx, 30.0)
    ssc.rate_stream(600, 4).count_per_batch("n")
    ssc.run(4)
    span = ssc.batches[-1].finished - ssc.batches[0].scheduled
    assert ssc.total_records() == 2400
    assert ssc.sustained_records_per_second() == pytest.approx(2400 / span)
    assert ssc.latencies() == [info.latency for info in ssc.batches]


def test_results_series_aligns_with_batches(ctx):
    ssc = StreamingContext(ctx, 10.0)
    source = ssc.event_stream(80, 4, 8, seed=2, value_range=(1, 5))
    source.reduce_by_key_and_window(lambda a, b: a + b, 2, None, 4).count_per_batch("w")
    ssc.run(4)
    series = ssc.results("w")
    assert len(series) == 4
    assert series[0] is None and series[2] is None  # non-emitting batches
    assert series[1] is not None and series[3] is not None


def test_stream_batch_events_and_metrics():
    ctx = build_fault_context(4, seed=0, trace=True)
    workload = StreamingIdentityWorkload(
        ctx, records_per_batch=400, partitions=4, num_batches=3,
    )
    workload.run()
    obs = ctx.obs
    spans = obs.bus.by_kind("stream-batch")
    assert [e.name for e in spans] == ["batch-0", "batch-1", "batch-2"]
    for b, event in enumerate(spans):
        assert event.pool == "streaming"
        assert event.attrs["batch"] == b
        assert event.attrs["records"] == 400
        assert event.end - event.start == pytest.approx(event.attrs["latency"])
    report = ctx.metrics_report()
    assert report["counters"]["streaming.batches"] == 3
    assert report["counters"]["streaming.records"] == 1200
    assert report["histograms"]["streaming.batch_latency"]["count"] == 3


def test_stream_batches_render_on_their_own_trace_lane():
    ctx = build_fault_context(4, seed=0, trace=True)
    StreamingIdentityWorkload(
        ctx, records_per_batch=400, partitions=4, num_batches=2,
    ).run()
    trace = to_chrome_trace(ctx.obs.bus.events)
    rows = trace["traceEvents"]
    process_names = {
        m["pid"]: m["args"]["name"]
        for m in rows if m["ph"] == "M" and m["name"] == "process_name"
    }
    lane_of = {
        (m["pid"], m["tid"]): (process_names[m["pid"]], m["args"]["name"])
        for m in rows if m["ph"] == "M" and m["name"] == "thread_name"
    }
    batch_rows = [r for r in rows if r.get("cat") == "stream-batch"]
    assert len(batch_rows) == 2
    assert {lane_of[(r["pid"], r["tid"])] for r in batch_rows} == {
        ("driver", "streaming")
    }


def test_disabled_observability_records_nothing(ctx):
    StreamingIdentityWorkload(
        ctx, records_per_batch=400, partitions=4, num_batches=2,
    ).run()
    assert ctx.obs.bus.events == []
    assert "streaming.batches" not in ctx.metrics_report()["counters"]
