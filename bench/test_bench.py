"""Tests of the benchmark's own arithmetic and plumbing.

Run with ``python -m pytest bench/test_bench.py`` (not in tier-1
``testpaths``).  Nothing here measures time.
"""

import json
import os
import re

import pytest

from bench import ROOT, compare, metrics, run, stats, trace, workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    # root 0..10 { a 1..7 { b 2..5 } , c 8..9 }
    spans = [
        ["workload.rep", 0.0, 10.0, trace.NO_PARENT, 0],
        ["a.f", 1.0, 7.0, 0, 0],
        ["b.g", 2.0, 5.0, 1, 0],
        ["c.h", 8.0, 9.0, 0, 0],
    ]
    assert trace.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    table = trace.layer_table(spans, layers=("a", "b", "c", "workload"))
    assert {k: v["self_s"] for k, v in table.items()} == {
        "a": 3.0, "b": 3.0, "c": 1.0, "workload": 3.0,
    }
    assert sum(row["share"] for row in table.values()) == pytest.approx(1.0)
    assert table["a"]["calls"] == 1


def test_recursive_spans_are_charged_once():
    # A layer that reaches itself (TaskRuntime.iterator -> parents): the
    # layer's self time is the outermost duration, not the sum of frames.
    clock = FakeClock()
    tracer = trace.Tracer(clock)

    def descend(depth):
        clock.tick(1.0)
        if depth:
            wrapped(depth - 1)
        clock.tick(1.0)

    wrapped = tracer.wrap(descend, "task_runtime.iterator")

    def body():
        clock.tick(0.5)
        wrapped(3)
        clock.tick(0.5)

    tracer.wrap(body, trace.ROOT_SPAN)()

    table = trace.layer_table(tracer.spans)
    assert table["task_runtime"]["calls"] == 4
    assert table["task_runtime"]["self_s"] == pytest.approx(8.0)
    assert table["workload"]["self_s"] == pytest.approx(1.0)
    assert sum(row["share"] for row in table.values()) == pytest.approx(1.0)
    parents = [span[trace.PARENT] for span in tracer.spans]
    assert parents == [trace.NO_PARENT, 0, 1, 2, 3]


def test_span_closes_when_the_wrapped_function_raises():
    tracer = trace.Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    def body():
        with pytest.raises(KeyError):
            tracer.wrap(boom, "shuffle.fetch")()
        tracer.wrap(lambda: None, "shuffle.fetch")()

    tracer.wrap(body, trace.ROOT_SPAN)()
    assert [span[trace.PARENT] for span in tracer.spans] == [trace.NO_PARENT, 0, 0]


def test_shares_of_a_real_traced_job_sum_to_one():
    from repro.analysis.experiments import build_engine_context

    def body():
        ctx = build_engine_context(num_workers=2)
        rdd = ctx.generate(lambda p: [(j % 5, j) for j in range(40)], 4, record_size=100)
        return ctx, rdd.reduce_by_key(lambda a, b: a + b, 2).collect()

    tracer = trace.Tracer()
    tracer.install()
    try:
        ctx, total = tracer.wrap(body, trace.ROOT_SPAN)()
    finally:
        tracer.remove()
    assert sorted(total) == [(k, sum(j for j in range(40) if j % 5 == k) * 4) for k in range(5)]
    table = trace.layer_table(tracer.spans)
    assert sum(row["share"] for row in table.values()) == pytest.approx(1.0, abs=1e-9)
    names = {span[trace.NAME] for span in tracer.spans}
    # Task completions fire inside Environment.step and belong to the
    # scheduler, not to the three-line event loop.
    assert "scheduler.event" in names and "scheduler.run_job" in names
    assert table["shuffle"]["calls"] > 0 and table["task_runtime"]["calls"] > 0
    assert tracer.instances["FlintContext"] == [ctx]
    assert tracer.events_stepped > 0 and tracer.events_scheduled >= tracer.events_stepped


def test_event_steps_are_charged_to_the_callback_owner():
    from repro.analysis.experiments import run_batch_workload
    from repro.engine.scheduler import TaskScheduler
    from repro.server.clients import OpenLoopClient

    assert trace.callback_layer(TaskScheduler._on_task_done) == "scheduler"
    assert trace.callback_layer(OpenLoopClient.start) == "server"
    assert trace.callback_layer(run_batch_workload) == "workload"
    assert trace.callback_layer(len) == "cluster"


# ----------------------------------------------------------------------
# Wrappers come off completely
# ----------------------------------------------------------------------
def _patch_points():
    import importlib

    points = []
    for entries in trace.LAYER_TARGETS.values():
        for module_name, class_name, names in entries:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            points += [(owner, attr) for attr in names]
    from repro.cluster.environment import Environment
    from repro.engine import executor, scheduler, transformations
    from repro.engine.context import FlintContext

    points += [(Environment, "step"), (Environment, "schedule_at"), (FlintContext, "__init__")]
    # Functions imported by name are patched where they landed, too.
    points += [(scheduler, "from_records"), (executor, "from_records"),
               (transformations, "estimate_record_size")]
    return points


def test_wrappers_are_fully_removed():
    points = _patch_points()
    before = [owner.__dict__[attr] for owner, attr in points]
    tracer = trace.Tracer()
    tracer.install()
    try:
        during = [owner.__dict__[attr] for owner, attr in points]
        unpatched = [point for point, d, b in zip(points, during, before) if d is b]
        assert unpatched == []
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.remove()
    after = [owner.__dict__[attr] for owner, attr in points]
    assert all(a is b for a, b in zip(after, before))
    tracer.remove()  # idempotent


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75),
    (100, 90), (199, 90), (200, 95), (10_000, 95),
])
def test_percentile_selection_rule(n, expected):
    assert stats.supported_percentile(n) == expected
    if expected is not None:
        assert n - (expected * n + 99) // 100 >= stats.MIN_TAIL_SAMPLES


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert stats.percentile(values, 50) == 100
    assert stats.percentile(values, 95) == 190
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.tail(values, 95) == (95, 190)
    assert stats.tail(values[:60], 95) == (75, 45)
    assert stats.tail([4.0, 8.0], 95) == (None, 6.0)
    assert stats.tail([], 95) == (None, 0.0)


def test_quartiles_match_statistics_quantiles():
    import statistics

    values = [2.0, 2.1, 1.9, 2.4, 2.2, 2.05, 2.3, 1.95, 2.15, 2.25]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q3)
    assert stats.iqr_frac(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.quartiles([5.0]) == (5.0, 5.0)


# ----------------------------------------------------------------------
# Names: run.py, metrics.py and BENCHMARK.json agree
# ----------------------------------------------------------------------
def test_benchmark_json_is_the_metric_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        document = json.load(fh)
    assert document == metrics.benchmark_document(workloads.WORKLOADS)


def test_contract_limits():
    document = metrics.benchmark_document(workloads.WORKLOADS)
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60
    for entry in document["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    for entry in document["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in document["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in document["end_to_end"])


def test_traced_pass_emits_exactly_the_per_layer_names():
    spans = [["workload.rep", 0.0, 2.0, trace.NO_PARENT, 0],
             ["scheduler.run_job", 0.5, 1.5, 0, 0]]
    values, notes = metrics.per_layer_values(
        spans, {"tasks_completed": 4}, 1, [2.0], [1.0, 1.1],
        events_scheduled=3, events_stepped=3,
    )
    assert list(values) != [] and set(values) == {name for name, _u, _b in metrics.PER_LAYER}
    assert all(isinstance(v, (int, float)) for v in values.values())
    assert values["scheduler.share"] == pytest.approx(0.5)
    assert values["scheduler.self_us_per_task"] == pytest.approx(250_000.0)
    assert values["harness.trace_overhead_frac"] == pytest.approx(2.0 / 1.05 - 1.0)
    assert notes["context.run_job.p95_ms"] == {"percentile_used": None, "samples": 1}


def test_every_layer_has_the_three_layer_metrics():
    names = {name for name, _u, _b in metrics.PER_LAYER}
    for layer in trace.LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s", f"{layer}.share"} <= names


def test_memo_hit_rate_is_a_ratio_of_sums_not_zero():
    # The perf_smoke totals bug reported 0 / null because the sizing memo
    # counters live on the context, not on SchedulerStats.
    from repro.analysis.experiments import build_engine_context

    ctx = build_engine_context(num_workers=2)
    rdd = ctx.generate(lambda p: list(range(10)), 2, record_size=10)
    rdd.map(lambda x: x + 1).map(lambda x: x * 2).count()
    counters = {}
    metrics.read_counters({"FlintContext": [ctx]}, counters)
    assert counters["memo_hits"] == ctx.record_size_memo_hits > 0
    assert counters["memo_hits"] + counters["memo_misses"] > 0


# ----------------------------------------------------------------------
# Harness plumbing
# ----------------------------------------------------------------------
def test_child_never_inherits_a_stray_flint_override():
    env = run.child_env({
        "PATH": "/usr/bin", "FLINT_PROFILE": "1", "FLINT_SCHEDULER": "legacy",
        "FLINT_FAULT_PLAN": "revoke@3", "FLINT_WORKERS": "7", "FLINT_TRACE": "1",
        "OMP_NUM_THREADS": "8",
    })
    flint = {k: v for k, v in env.items() if k.startswith("FLINT_")}
    assert flint == {k: v for k, v in run.PINNED_ENV.items() if k.startswith("FLINT_")}
    assert env["OMP_NUM_THREADS"] == "1" and env["PATH"] == "/usr/bin"


def test_expected_pins_cover_every_workload():
    expected = run.load_expected()
    assert expected["seed"] == run.PINNED_SEED
    assert set(expected["workloads"]) == set(workloads.WORKLOADS)
    for pin in expected["workloads"].values():
        assert re.fullmatch(r"[0-9a-f]{64}", pin["digest"]) and pin["units"] > 0


def test_digest_is_exact_and_order_independent():
    a = workloads.digest_of({"x": 0.1 + 0.2, "y": [1, 2]})
    assert a == workloads.digest_of({"y": [1, 2], "x": 0.30000000000000004})
    assert a != workloads.digest_of({"x": 0.3, "y": [1, 2]})


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.0]
    assert compare.verdict(steady, [v * 1.05 for v in steady], "lower", 0.10)[1] == "ok"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.10)[1] == "worse"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "lower", 0.10)[1] == "ok"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "higher", 0.10)[1] == "worse"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    change, result = compare.verdict(steady, noisy, "lower", 0.10)
    assert result == "unresolved" and abs(change) < 0.10
