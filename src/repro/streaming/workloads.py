"""The streaming workload suite: identity, stateful wordcount, windows.

Mirrors the Flink-vs-Spark reproducibility study's benchmark trio
(PAPERS.md) on the micro-batch plane, plus the recovery benchmark that is
the subsystem's reason to exist: revoke transient servers mid-stream and
measure how τ-periodic state checkpointing bounds the recovery latency of
the next batch.

Every workload follows the fault-harness protocol (``load()`` / ``run()``
returning a comparable result), so the chaos driver and the golden
equivalence suites run them unmodified.
"""

from __future__ import annotations

import statistics
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import FlintContext
    from repro.engine.rdd import RDD

from repro.engine.columnar import Sum
from repro.streaming.context import StreamingContext

#: Fixed wordcount vocabulary — part of the workload's seed contract.
VOCABULARY: Tuple[str, ...] = (
    "spot", "market", "revoke", "bid", "price", "batch", "stream", "state",
    "window", "slide", "spark", "flint", "server", "transient", "lineage",
    "checkpoint", "tau", "delta", "mttf", "worker", "shuffle", "fetch",
    "block", "cache", "replay", "seed", "drift", "burst", "queue", "drain",
)


# ----------------------------------------------------------------------
# Module-level kernels shared by the workloads below.
# ----------------------------------------------------------------------
def _identity(record):
    return record


def _identity_batch(batch):
    """Columnar twin of :func:`_identity` (a fully-kernelled chain)."""
    return batch


def _split_words(line: str) -> List[str]:
    return line.split()


def _word_one(word: str) -> Tuple[str, int]:
    return (word, 1)


def _add(a, b):
    return a + b


def _sum_update(new_values: List[int], old_state: Optional[int]) -> int:
    return (old_state or 0) + sum(new_values)


def _sorted_collect(rdd: "RDD") -> Tuple:
    return tuple(sorted(rdd.collect()))


class StreamingIdentityWorkload:
    """Pass-through pipe: rate source → identity map → per-batch count.

    The identity map carries a columnar ``batch_fn`` twin, so a batch of at
    least ``MIN_LOWERED_ROWS`` records per partition lowers the whole chain
    to vectorised batches — the throughput workload deliberately exercises
    the fastest plane.
    """

    def __init__(
        self,
        ctx: "FlintContext",
        records_per_batch: int = 4_000,
        partitions: int = 8,
        num_batches: int = 8,
        batch_interval: float = 30.0,
        record_size: int = 125_000,
    ):
        self.ctx = ctx
        self.records_per_batch = records_per_batch
        self.partitions = partitions
        self.num_batches = num_batches
        self.ssc = StreamingContext(ctx, batch_interval)
        source = self.ssc.rate_stream(records_per_batch, partitions, record_size)
        self.source = source
        passed = source.map(_identity, batch_fn=_identity_batch)
        passed.count_per_batch("count")

    def load(self) -> None:
        pass

    def run(self) -> Tuple[int, ...]:
        infos = self.ssc.run(self.num_batches)
        return tuple(info.results["count"] for info in infos)

    def expected(self) -> Tuple[int, ...]:
        per_batch = self.source.source.records_in_batch(0)
        return tuple(per_batch for _ in range(self.num_batches))


class StreamingWordCountWorkload:
    """Stateful wordcount: text source → split → (word, 1) → reduce →
    ``update_state_by_key`` running totals.

    Strings keep this on the row plane; the state chain is the lineage
    that τ-periodic checkpointing must truncate.
    """

    def __init__(
        self,
        ctx: "FlintContext",
        lines_per_batch: int = 1_600,
        partitions: int = 8,
        num_batches: int = 8,
        batch_interval: float = 30.0,
        words_per_line: int = 4,
        seed: int = 23,
        record_size: int = 200_000,
        checkpointing: bool = False,
        mttf: float = 1800.0,
        initial_delta: Optional[float] = None,
        min_tau: float = 30.0,
        max_tau: Optional[float] = None,
    ):
        self.ctx = ctx
        self.num_batches = num_batches
        self.seed = seed
        self.ssc = StreamingContext(ctx, batch_interval)
        source = self.ssc.text_stream(
            lines_per_batch, partitions, VOCABULARY, seed, words_per_line,
            record_size,
        )
        self.source = source
        counts = (
            source.flat_map(_split_words)
            .map(_word_one)
            .reduce_by_key(_add, partitions)
        )
        self.state = counts.update_state_by_key(
            _sum_update, partitions, record_size=max(1, record_size // 4)
        )
        self.state.count_per_batch("keys")
        if checkpointing:
            self.ssc.enable_state_checkpointing(
                mttf, initial_delta=initial_delta, min_tau=min_tau, max_tau=max_tau
            )

    def load(self) -> None:
        pass

    def run(self):
        infos = self.ssc.run(self.num_batches)
        final = dict(self.state.latest_rdd.collect())
        return tuple(info.results["keys"] for info in infos), tuple(
            sorted(final.items())
        )

    def expected_state(self, num_batches: Optional[int] = None) -> Dict[str, int]:
        """Reference running totals computed without the engine."""
        counts: Dict[str, int] = {}
        for b in range(num_batches or self.num_batches):
            for line in self.source.source.reference_records(b):
                for word in line.split():
                    counts[word] = counts.get(word, 0) + 1
        return counts


class StreamingWindowWorkload:
    """Windowed aggregation: event source → ``reduce_by_key_and_window``.

    ``slide == window`` gives tumbling windows; ``slide < window`` sliding
    ones.  Emitting batches collect their sorted per-key sums to the
    driver; non-emitting batches record ``None``.
    """

    def __init__(
        self,
        ctx: "FlintContext",
        records_per_batch: int = 2_000,
        partitions: int = 8,
        num_batches: int = 9,
        window: int = 3,
        slide: Optional[int] = None,
        num_keys: int = 40,
        batch_interval: float = 30.0,
        seed: int = 31,
        record_size: int = 250_000,
        persist_source: bool = True,
    ):
        self.ctx = ctx
        self.num_batches = num_batches
        self.window = window
        self.slide = window if slide is None else slide
        self.ssc = StreamingContext(ctx, batch_interval)
        source = self.ssc.event_stream(
            records_per_batch, partitions, num_keys, seed,
            record_size, value_range=(1, 10),
        )
        if persist_source:
            source.persist()
        self.source = source
        windowed = source.reduce_by_key_and_window(
            Sum(), window, self.slide, partitions
        )
        windowed.foreach_rdd(_sorted_collect, "window")

    def load(self) -> None:
        pass

    def run(self) -> Tuple[Tuple[int, Tuple], ...]:
        infos = self.ssc.run(self.num_batches)
        return tuple(
            (info.index, info.results["window"])
            for info in infos
            if info.results["window"] is not None
        )

    def expected(self) -> Tuple[Tuple[int, Tuple], ...]:
        """Driver-side window sums from the source's reference records."""
        out = []
        for b in range(self.num_batches):
            done = b + 1
            if done < self.window or (done - self.window) % self.slide:
                continue
            sums: Dict[int, int] = {}
            for member in range(b - self.window + 1, b + 1):
                for key, value in self.source.source.reference_records(member):
                    sums[key] = sums.get(key, 0) + value
            out.append((b, tuple(sorted(sums.items()))))
        return tuple(out)


# ----------------------------------------------------------------------
# The recovery benchmark: streaming state meets transient servers.
# ----------------------------------------------------------------------
def run_recovery_benchmark(
    num_workers: int = 6,
    num_batches: int = 12,
    revoke_after_batch: int = 8,
    revoke_count: Optional[int] = None,
    replace_delay: float = 10.0,
    checkpointing: bool = True,
    mttf: float = 1800.0,
    batch_interval: float = 30.0,
    lines_per_batch: int = 1_600,
    partitions: int = 8,
    seed: int = 23,
    initial_delta: float = 20.0,
    min_tau: float = 30.0,
    max_tau: float = 60.0,
) -> Dict[str, float]:
    """Revoke servers mid-stream; measure how checkpointing bounds recovery.

    Runs the stateful wordcount on a deterministic on-demand cluster and,
    half an idle interval after batch ``revoke_after_batch`` completes,
    force-revokes ``revoke_count`` workers (default: the whole pool — a
    homogeneous spot cluster loses all servers at once, §3.1.1) with
    replacements booting ``replace_delay`` seconds later.  Every cached
    state partition and shuffle output dies with the pool, so the next
    batch recomputes its state generation from the deepest durable data:
    the last τ-periodic state checkpoint when the policy is on, batch 0's
    sources when it is off.  Reported are simulated steady vs recovery
    batch latency and the task count the recovery batch needed — the
    quantities checkpointing shrinks.

    Everything reported is simulated (deterministic for a fixed seed);
    ``tests/streaming/test_state.py`` pins both runs' numbers exactly.
    """
    if not 0 <= revoke_after_batch < num_batches - 1:
        raise ValueError("revoke_after_batch must leave at least one batch after it")
    from repro.faults.harness import _PRICE, build_fault_context

    ctx = build_fault_context(num_workers, seed=0)
    workload = StreamingWordCountWorkload(
        ctx,
        lines_per_batch=lines_per_batch,
        partitions=partitions,
        num_batches=num_batches,
        batch_interval=batch_interval,
        seed=seed,
        checkpointing=checkpointing,
        mttf=mttf,
        initial_delta=initial_delta,
        min_tau=min_tau,
        max_tau=max_tau,
    )
    ssc = workload.ssc
    stats = ctx.scheduler.stats
    recovery_tasks = 0
    for b in range(num_batches):
        if b == revoke_after_batch + 1:
            tasks_before = stats.tasks_completed
            ssc.run_batch()
            recovery_tasks = stats.tasks_completed - tasks_before
        else:
            ssc.run_batch()
        if b == revoke_after_batch:
            # Mid-stream revocation: half an idle interval after the batch,
            # while the next batch's deadline is already fixed.
            ctx.env.run_until(ctx.now + batch_interval / 2)
            victims = ctx.cluster.live_workers()
            if revoke_count is not None:
                victims = victims[:revoke_count]
            market_id = victims[0].instance.market_id
            ctx.cluster.force_revoke(victims)
            ctx.cluster.launch(
                market_id, bid=_PRICE, count=len(victims), delay=replace_delay
            )
    latencies = ssc.latencies()
    steady = statistics.median(latencies[1 : revoke_after_batch + 1])
    recovery = latencies[revoke_after_batch + 1]
    final_state = dict(workload.state.latest_rdd.collect())
    policy = ssc.policy
    return {
        "steady_batch_latency": steady,
        "recovery_batch_latency": recovery,
        "recovery_overhead": recovery - steady,
        "recovery_tasks": recovery_tasks,
        "records_per_second": ssc.sustained_records_per_second(),
        "state_checkpoint_marks": float(policy.stats.marks) if policy else 0.0,
        "final_state_keys": float(len(final_state)),
    }
