"""Every metric the benchmark reports: one definition of names, units, bounds.

``BENCHMARK.json`` is :func:`benchmark_document` written to disk (the test
suite holds the two equal), ``run.py`` emits exactly these names, and
``compare.py`` reads the directions and bounds from here.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from bench import stats, trace

RUN_SECONDS = 8

#: name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("tasks_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: Counters and ratios read at the layer boundaries: name, unit, better.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("context.jobs", "count", "lower"),
    ("context.run_job.p50_ms", "ms", "lower"),
    ("context.run_job.p95_ms", "ms", "lower"),
    ("context.record_size_memo_hit_rate", "ratio", "higher"),
    ("scheduler.rounds", "count", "lower"),
    ("scheduler.tasks_completed", "count", "higher"),
    ("scheduler.tasks_lost", "count", "lower"),
    ("scheduler.resolve_cache_hit_rate", "ratio", "higher"),
    ("scheduler.rebuild_fraction", "ratio", "lower"),
    ("scheduler.readiness_invalidations", "count", "lower"),
    ("scheduler.ready_queue_peak", "count", "lower"),
    ("scheduler.self_us_per_task", "us", "lower"),
    ("task_runtime.self_us_per_task", "us", "lower"),
    ("task_runtime.fused_chains", "count", "higher"),
    ("task_runtime.columnar_chains", "count", "higher"),
    ("task_runtime.columnar_fallbacks", "count", "lower"),
    ("shuffle.map_outputs", "count", "lower"),
    ("shuffle.fetches", "count", "lower"),
    ("shuffle.bytes_written", "B", "lower"),
    ("shuffle.fetch_failures", "count", "lower"),
    ("block_manager.puts", "count", "lower"),
    ("block_manager.hit_rate", "ratio", "higher"),
    ("block_manager.evictions_to_disk", "count", "lower"),
    ("block_manager.drops", "count", "lower"),
    ("checkpoint.partitions_written", "count", "lower"),
    ("checkpoint.bytes_written", "B", "lower"),
    ("checkpoint.write_failures", "count", "lower"),
    ("ftmanager.rdds_marked", "count", "lower"),
    ("ftmanager.rdds_checkpointed", "count", "lower"),
    ("cluster.revocations", "count", "lower"),
    ("cluster.events_stepped", "count", "lower"),
    ("simulation.events_scheduled", "count", "lower"),
    ("market.ledger_ops", "count", "lower"),
    ("market.queries", "count", "lower"),
    ("longrun.jobs", "count", "higher"),
    ("longrun.sim_s_per_wall_s", "1/s", "higher"),
    ("server.submitted", "count", "higher"),
    ("server.completed", "count", "higher"),
    ("server.rejected", "count", "lower"),
    ("server.throttled", "count", "lower"),
    ("server.queued_peak", "count", "lower"),
    ("server.queries_per_wall_s", "1/s", "higher"),
    ("journal.records", "count", "lower"),
    ("result_cache.hit_rate", "ratio", "higher"),
    ("streaming.batches", "count", "higher"),
    ("streaming.records_per_wall_s", "1/s", "higher"),
    ("streaming.run_batch.p50_ms", "ms", "lower"),
    ("streaming.run_batch.p95_ms", "ms", "lower"),
    ("streaming.state_checkpoints", "count", "lower"),
    ("harness.trace_overhead_frac", "ratio", "lower"),
    ("harness.wall_iqr_frac", "ratio", "lower"),
    ("harness.reps", "count", "higher"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    spec
    for layer in trace.LAYERS
    for spec in (
        (f"{layer}.calls", "count", "lower"),
        (f"{layer}.self_s", "s", "lower"),
        (f"{layer}.share", "ratio", "lower"),
    )
) + COUNTERS


def benchmark_document(workloads: Dict[str, Any]) -> Dict[str, Any]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


# ----------------------------------------------------------------------
# Counters read off the program's public stats objects
# ----------------------------------------------------------------------
_PEAKS = ("ready_queue_peak", "queued_peak")


def read_counters(instances: Dict[str, List[Any]], into: Dict[str, float]) -> None:
    """Fold one repetition's contexts/servers/streams into ``into``."""

    def add(key: str, value: float) -> None:
        if key in _PEAKS:
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value

    for ctx in instances.get("FlintContext", ()):
        sched = ctx.scheduler.stats
        add("jobs", sched.jobs_submitted)
        add("memo_hits", ctx.record_size_memo_hits)
        add("memo_misses", ctx.record_size_memo_misses)
        add("rounds", sched.scheduling_rounds)
        add("tasks_completed", sched.tasks_completed)
        add("tasks_lost", sched.tasks_lost)
        add("resolve_hits", sched.resolve_cache_hits)
        add("resolve_misses", sched.resolve_cache_misses)
        add("readiness_rebuilds", sched.readiness_rebuilds)
        add("readiness_invalidations", sched.readiness_invalidations)
        add("ready_queue_peak", sched.ready_queue_peak)
        add("fused_chains", sched.fused_chains)
        add("columnar_chains", sched.columnar_chains)
        add("columnar_fallbacks", sched.columnar_fallbacks)
        add("fetch_failures", sched.fetch_failures)
        add("checkpoint_write_failures", sched.checkpoint_write_failures)
        add("shuffle_bytes_written", ctx.shuffle_manager.bytes_written)
        add("checkpoint_partitions", ctx.checkpoints.partitions_written)
        add("checkpoint_bytes", ctx.checkpoints.bytes_written)
        add("revocations", len(ctx.cluster.revocation_log))
        # Revoked workers stay in ``cluster.workers``; their books count too.
        for worker in ctx.cluster.workers.values():
            blocks = worker.block_manager
            if blocks is None:
                continue
            add("block_puts", blocks.stats.puts)
            add("block_hits", blocks.stats.hits_memory + blocks.stats.hits_disk)
            add("block_misses", blocks.stats.misses)
            add("block_evictions", blocks.stats.evictions_to_disk)
            add("block_drops", blocks.stats.drops)
        if ctx.ft_manager is not None:
            add("rdds_marked", ctx.ft_manager.stats.rdds_marked)
            add("rdds_checkpointed", ctx.ft_manager.stats.rdds_checkpointed)
    for server in instances.get("JobServer", ()):
        add("submitted", server.stats.submitted)
        add("completed", server.stats.completed)
        add("rejected", server.stats.rejected)
        add("throttled", server.stats.throttled)
        add("queued_peak", server.stats.queued_peak)
        if server.result_cache is not None:
            add("cache_hits", server.result_cache.hits)
            add("cache_misses", server.result_cache.misses)
    for ssc in instances.get("StreamingContext", ()):
        add("stream_records", ssc.total_records())
        if ssc.policy is not None:
            add("state_checkpoints", ssc.policy.stats.marks)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_values(
    spans: Sequence[Sequence],
    counters: Dict[str, float],
    traced_reps: int,
    traced_walls: Sequence[float],
    untraced_walls: Sequence[float],
    events_scheduled: int,
    events_stepped: int,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Every ``PER_LAYER`` value for one traced pass, per repetition.

    Counters are totals over the traced repetitions divided by their
    number: simulated work repeats exactly, so these are whole per-rep
    counts.  Also returns notes for the human-readable report (which
    percentile each ``p95`` really is).
    """
    reps = max(1, traced_reps)
    table = trace.layer_table(spans)
    values: Dict[str, float] = {}
    for layer in trace.LAYERS:
        row = table[layer]
        values[f"{layer}.calls"] = row["calls"] / reps
        values[f"{layer}.self_s"] = row["self_s"] / reps
        values[f"{layer}.share"] = row["share"]

    def per_rep(key: str) -> float:
        total = counters.get(key, 0)
        return total if key in _PEAKS else total / reps

    by_name = trace.durations_by_name(spans)

    def span_calls(*names: str) -> float:
        return sum(len(by_name.get(name, ())) for name in names) / reps

    traced_wall = sum(traced_walls) / reps if traced_walls else 0.0
    tasks = per_rep("tasks_completed")
    notes: Dict[str, Any] = {}

    def tail_ms(prefix: str, span_name: str) -> None:
        sample = [d * 1e3 for d in by_name.get(span_name, ())]
        values[f"{prefix}.p50_ms"] = statistics.median(sample) if sample else 0.0
        used, value = stats.tail(sample, 95)
        values[f"{prefix}.p95_ms"] = value
        notes[f"{prefix}.p95_ms"] = {"percentile_used": used, "samples": len(sample)}

    values["context.jobs"] = per_rep("jobs")
    tail_ms("context.run_job", "scheduler.run_job")
    values["context.record_size_memo_hit_rate"] = _ratio(
        counters.get("memo_hits", 0),
        counters.get("memo_hits", 0) + counters.get("memo_misses", 0),
    )
    values["scheduler.rounds"] = per_rep("rounds")
    values["scheduler.tasks_completed"] = tasks
    values["scheduler.tasks_lost"] = per_rep("tasks_lost")
    values["scheduler.resolve_cache_hit_rate"] = _ratio(
        counters.get("resolve_hits", 0),
        counters.get("resolve_hits", 0) + counters.get("resolve_misses", 0),
    )
    values["scheduler.rebuild_fraction"] = _ratio(
        counters.get("readiness_rebuilds", 0), counters.get("rounds", 0)
    )
    values["scheduler.readiness_invalidations"] = per_rep("readiness_invalidations")
    values["scheduler.ready_queue_peak"] = per_rep("ready_queue_peak")
    values["scheduler.self_us_per_task"] = _ratio(values["scheduler.self_s"] * 1e6, tasks)
    values["task_runtime.self_us_per_task"] = _ratio(
        values["task_runtime.self_s"] * 1e6, tasks
    )
    values["task_runtime.fused_chains"] = per_rep("fused_chains")
    values["task_runtime.columnar_chains"] = per_rep("columnar_chains")
    values["task_runtime.columnar_fallbacks"] = per_rep("columnar_fallbacks")
    values["shuffle.map_outputs"] = span_calls("shuffle.register_map_output")
    values["shuffle.fetches"] = span_calls("shuffle.fetch")
    values["shuffle.bytes_written"] = per_rep("shuffle_bytes_written")
    values["shuffle.fetch_failures"] = per_rep("fetch_failures")
    values["block_manager.puts"] = per_rep("block_puts")
    values["block_manager.hit_rate"] = _ratio(
        counters.get("block_hits", 0),
        counters.get("block_hits", 0) + counters.get("block_misses", 0),
    )
    values["block_manager.evictions_to_disk"] = per_rep("block_evictions")
    values["block_manager.drops"] = per_rep("block_drops")
    values["checkpoint.partitions_written"] = per_rep("checkpoint_partitions")
    values["checkpoint.bytes_written"] = per_rep("checkpoint_bytes")
    values["checkpoint.write_failures"] = per_rep("checkpoint_write_failures")
    values["ftmanager.rdds_marked"] = per_rep("rdds_marked")
    values["ftmanager.rdds_checkpointed"] = per_rep("rdds_checkpointed")
    values["cluster.revocations"] = per_rep("revocations")
    values["cluster.events_stepped"] = events_stepped / reps
    values["simulation.events_scheduled"] = events_scheduled / reps
    values["market.ledger_ops"] = span_calls(
        "market.acquire", "market.terminate", "market.revoke"
    )
    values["market.queries"] = span_calls(
        "market.total_cost", "market.cost_between", "market.capacity_at"
    )
    values["longrun.jobs"] = per_rep("longrun.jobs")
    values["longrun.sim_s_per_wall_s"] = _ratio(
        counters.get("longrun.sim_s", 0),
        sum(by_name.get("longrun.run_long_horizon", ())),
    )
    values["server.submitted"] = per_rep("submitted")
    values["server.completed"] = per_rep("completed")
    values["server.rejected"] = per_rep("rejected")
    values["server.throttled"] = per_rep("throttled")
    values["server.queued_peak"] = per_rep("queued_peak")
    values["server.queries_per_wall_s"] = _ratio(per_rep("completed"), traced_wall)
    values["journal.records"] = span_calls("journal.record")
    values["result_cache.hit_rate"] = _ratio(
        counters.get("cache_hits", 0),
        counters.get("cache_hits", 0) + counters.get("cache_misses", 0),
    )
    values["streaming.batches"] = span_calls("streaming.run_batch")
    values["streaming.records_per_wall_s"] = _ratio(per_rep("stream_records"), traced_wall)
    tail_ms("streaming.run_batch", "streaming.run_batch")
    values["streaming.state_checkpoints"] = per_rep("state_checkpoints")
    values["harness.trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    values["harness.wall_iqr_frac"] = stats.iqr_frac(untraced_walls)
    values["harness.reps"] = len(untraced_walls)
    return values, notes
