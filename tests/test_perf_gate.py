"""The perf gate's comparison logic, including stale-baseline failures.

These tests drive ``compare``/``compare_columnar`` on synthetic reports —
no smoke run — so they pin the *shape* of the gate: what fails, what is
merely noted, and that every failure about a stale baseline names the
missing counter, shows the observed value, and carries the re-baseline
command.
"""

from benchmarks.perf_gate import _REBASELINE, compare, compare_columnar


def _workload_entry(wall=1.0, tps=100.0, sim=2.5):
    return {
        "wall_seconds": wall,
        "tasks_per_second": tps,
        "fig7": {"baseline_runtime": sim, "revoked_runtime": sim * 2},
    }


def _columnar_entry(speedup=3.2, col_tps=140.0):
    return {
        "speedup": speedup,
        "columnar_tasks_per_second": col_tps,
        "row_tasks_per_second": col_tps / speedup,
    }


def test_healthy_reports_pass():
    baseline = {"workloads": {"PageRank": _workload_entry()}}
    fresh = {"workloads": {"PageRank": _workload_entry(wall=1.05, tps=98.0)}}
    failures, notes = compare(baseline, fresh, threshold=0.30, min_wall=0.2)
    assert failures == []
    assert any("PageRank" in n for n in notes)


def test_wall_regression_fails():
    baseline = {"workloads": {"PageRank": _workload_entry(wall=1.0)}}
    fresh = {"workloads": {"PageRank": _workload_entry(wall=1.5)}}
    failures, _ = compare(baseline, fresh, threshold=0.30, min_wall=0.2)
    assert any("regression gate" in f for f in failures)


def test_missing_tasks_per_second_is_an_actionable_failure():
    """A gated counter absent from a stale baseline fails, never skips."""
    stale = _workload_entry()
    del stale["tasks_per_second"]
    baseline = {"workloads": {"PageRank": stale}}
    fresh = {"workloads": {"PageRank": _workload_entry(tps=123.4)}}
    failures, _ = compare(baseline, fresh, threshold=0.30, min_wall=0.2)
    [failure] = [f for f in failures if "tasks_per_second" in f]
    assert "123.4" in failure  # the observed fresh value
    assert _REBASELINE in failure  # how to fix it


def test_simulated_runtime_drift_fails():
    baseline = {"workloads": {"PageRank": _workload_entry(sim=2.5)}}
    fresh = {"workloads": {"PageRank": _workload_entry(sim=2.6)}}
    failures, _ = compare(baseline, fresh, threshold=0.30, min_wall=0.2)
    assert any("behaviour-identical" in f for f in failures)


def test_columnar_healthy_passes():
    baseline = {"columnar_comparison": {"PageRank": _columnar_entry()}}
    fresh = {"columnar_comparison": {"PageRank": _columnar_entry(3.3, 145.0)}}
    failures, notes = compare_columnar(
        baseline, fresh, threshold=0.30, min_speedup=2.5
    )
    assert failures == []
    assert any("speedup" in n for n in notes)


def test_columnar_section_missing_from_baseline_fails_actionably():
    baseline = {"workloads": {}}
    fresh = {"columnar_comparison": {"PageRank": _columnar_entry(3.3)}}
    failures, _ = compare_columnar(
        baseline, fresh, threshold=0.30, min_speedup=2.5
    )
    [failure] = failures
    assert "columnar_comparison" in failure
    assert "3.3" in failure  # observed fresh speedup
    assert _REBASELINE in failure


def test_columnar_speedup_below_floor_fails():
    baseline = {"columnar_comparison": {"PageRank": _columnar_entry(3.2)}}
    fresh = {"columnar_comparison": {"PageRank": _columnar_entry(1.4)}}
    failures, _ = compare_columnar(
        baseline, fresh, threshold=0.30, min_speedup=2.5
    )
    assert any("no longer pays for itself" in f for f in failures)


def test_columnar_throughput_regression_fails():
    baseline = {"columnar_comparison": {"PageRank": _columnar_entry(3.2, 140.0)}}
    fresh = {"columnar_comparison": {"PageRank": _columnar_entry(3.2, 80.0)}}
    failures, _ = compare_columnar(
        baseline, fresh, threshold=0.30, min_speedup=2.5
    )
    assert any("throughput gate" in f for f in failures)


def test_columnar_workload_missing_from_fresh_fails():
    baseline = {"columnar_comparison": {"PageRank": _columnar_entry()}}
    fresh = {"columnar_comparison": {}}
    failures, _ = compare_columnar(
        baseline, fresh, threshold=0.30, min_speedup=2.5
    )
    assert any("missing from the fresh run" in f for f in failures)


def _streaming_entry(wall=1.0, tps=100.0, rps=300_000.0, recovery=19.8):
    return {
        "wall_seconds": wall,
        "tasks_per_second": tps,
        "records_per_second": rps,
        "streaming": {
            "simulated_seconds": {"recovery_recovery_batch_latency": recovery}
        },
    }


def test_streaming_healthy_passes():
    baseline = {"workloads": {"Streaming": _streaming_entry()}}
    fresh = {"workloads": {"Streaming": _streaming_entry(rps=290_000.0)}}
    failures, notes = compare(
        baseline, fresh, threshold=0.30, min_wall=0.2, min_stream_rps=50_000.0
    )
    assert failures == []
    assert any("streaming ingest" in n for n in notes)


def test_streaming_rps_below_floor_fails():
    baseline = {"workloads": {"Streaming": _streaming_entry()}}
    fresh = {"workloads": {"Streaming": _streaming_entry(rps=30_000.0)}}
    failures, _ = compare(
        baseline, fresh, threshold=0.30, min_wall=0.2, min_stream_rps=50_000.0
    )
    [failure] = [f for f in failures if "records/s floor" in f]
    assert _REBASELINE in failure


def test_streaming_rps_regression_fails_even_above_floor():
    baseline = {"workloads": {"Streaming": _streaming_entry(rps=300_000.0)}}
    fresh = {"workloads": {"Streaming": _streaming_entry(rps=150_000.0)}}
    failures, _ = compare(
        baseline, fresh, threshold=0.30, min_wall=0.2, min_stream_rps=50_000.0
    )
    assert any("throughput gate" in f and "streaming ingest" in f for f in failures)


def test_streaming_rps_missing_from_baseline_fails_actionably():
    stale = _streaming_entry()
    del stale["records_per_second"]
    baseline = {"workloads": {"Streaming": stale}}
    fresh = {"workloads": {"Streaming": _streaming_entry(rps=123_456.0)}}
    failures, _ = compare(
        baseline, fresh, threshold=0.30, min_wall=0.2, min_stream_rps=50_000.0
    )
    [failure] = [f for f in failures if "records_per_second" in f]
    assert "123456" in failure
    assert _REBASELINE in failure


def test_streaming_recovery_latency_drift_fails():
    baseline = {"workloads": {"Streaming": _streaming_entry(recovery=19.8)}}
    fresh = {"workloads": {"Streaming": _streaming_entry(recovery=25.0)}}
    failures, _ = compare(baseline, fresh, threshold=0.30, min_wall=0.2)
    assert any(
        "behaviour-identical" in f and "recovery" in f for f in failures
    )


def _longhorizon_entry(wall=0.5, tps=100.0, spw=50_000_000.0, cost=3984.4):
    return {
        "wall_seconds": wall,
        "tasks_per_second": tps,
        "simulated_seconds_per_wall_second": spw,
        "longhorizon": {
            "simulated_seconds": {"total_cost": cost, "span": 1_195_320.0}
        },
    }


def test_longhorizon_healthy_passes():
    baseline = {"workloads": {"LongHorizon": _longhorizon_entry()}}
    fresh = {"workloads": {"LongHorizon": _longhorizon_entry(spw=48_000_000.0)}}
    failures, notes = compare(
        baseline, fresh, threshold=0.30, min_wall=0.2,
        min_sims_per_wall=1_000_000.0,
    )
    assert failures == []
    assert any("long-horizon throughput" in n for n in notes)


def test_longhorizon_below_floor_fails():
    baseline = {"workloads": {"LongHorizon": _longhorizon_entry()}}
    fresh = {"workloads": {"LongHorizon": _longhorizon_entry(spw=500_000.0)}}
    failures, _ = compare(
        baseline, fresh, threshold=0.30, min_wall=0.2,
        min_sims_per_wall=1_000_000.0,
    )
    [failure] = [f for f in failures if "per-wall-second floor" in f]
    assert _REBASELINE in failure


def test_longhorizon_regression_fails_even_above_floor():
    baseline = {"workloads": {"LongHorizon": _longhorizon_entry(spw=50_000_000.0)}}
    fresh = {"workloads": {"LongHorizon": _longhorizon_entry(spw=20_000_000.0)}}
    failures, _ = compare(
        baseline, fresh, threshold=0.30, min_wall=0.2,
        min_sims_per_wall=1_000_000.0,
    )
    assert any(
        "throughput gate" in f and "long-horizon" in f for f in failures
    )


def test_longhorizon_missing_from_baseline_fails_actionably():
    stale = _longhorizon_entry()
    del stale["simulated_seconds_per_wall_second"]
    baseline = {"workloads": {"LongHorizon": stale}}
    fresh = {"workloads": {"LongHorizon": _longhorizon_entry(spw=47_000_000.5)}}
    failures, _ = compare(
        baseline, fresh, threshold=0.30, min_wall=0.2,
        min_sims_per_wall=1_000_000.0,
    )
    [failure] = [f for f in failures if "simulated_seconds_per_wall_second" in f]
    assert "47000000.5" in failure
    assert _REBASELINE in failure


def test_longhorizon_simulated_cost_drift_fails():
    """The sweep's simulated outputs (total cost etc.) ride the determinism
    gate: an analytic-ledger bug that shifts a bill fails CI."""
    baseline = {"workloads": {"LongHorizon": _longhorizon_entry(cost=3984.4)}}
    fresh = {"workloads": {"LongHorizon": _longhorizon_entry(cost=3984.5)}}
    failures, _ = compare(baseline, fresh, threshold=0.30, min_wall=0.2)
    assert any(
        "behaviour-identical" in f and "longhorizon_total_cost" in f
        for f in failures
    )


def test_smoke_totals_sum_the_sizing_memo_counters(monkeypatch, tmp_path):
    """``totals`` once reported 0 memo hits and a null hit rate while every
    workload reported thousands: the totals loop skipped the memo fields."""
    from benchmarks import perf_smoke

    def fake(hits, misses):
        agg = {field: 0 for field in perf_smoke._COUNTER_FIELDS}
        agg.update(tasks_completed=10, ready_queue_peak=1,
                   record_size_memo_hits=hits, record_size_memo_misses=misses)
        entry = {"wall_seconds": 0.5, "tasks_completed": 10,
                 "scheduler_counters": perf_smoke._counters_payload(agg)}
        return lambda: (entry, agg)

    # run_smoke publishes its plane through the environment; scope that.
    monkeypatch.setenv("FLINT_COLUMNAR", "on")
    monkeypatch.setenv("FLINT_TRACE", "0")
    monkeypatch.setattr(perf_smoke, "BATCH_WORKLOADS", {})
    monkeypatch.setattr(perf_smoke, "_smoke_multitenant", fake(300, 100))
    monkeypatch.setattr(perf_smoke, "_smoke_saturation", fake(500, 100))
    monkeypatch.setattr(perf_smoke, "_smoke_streaming", fake(0, 0))
    # LongHorizon runs for real (a fraction of a second): it never touches
    # the sizing memo but must still carry the fields the totals sum.
    report = perf_smoke.run_smoke(str(tmp_path / "bench.json"))
    counters = report["totals"]["scheduler_counters"]
    assert counters["record_size_memo_hits"] == 800
    assert counters["record_size_memo_misses"] == 200
    assert counters["record_size_memo_hit_rate"] == 0.8
