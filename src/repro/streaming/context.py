"""The micro-batch driver: batches on the simulated clock (§6 extension).

A :class:`StreamingContext` wraps a :class:`~repro.engine.context.FlintContext`
and drives a DStream graph batch-by-batch.  Two pacing disciplines:

* ``fixed-rate`` (default, Spark Streaming's model): batch ``b`` is
  *scheduled* at ``start + b·interval``; the driver idles until then, runs
  the output actions, and records ``latency = finish - scheduled`` — a run
  that falls behind sees queueing delay in its latency, exactly like a real
  micro-batch engine.
* ``fixed-delay`` (the legacy hand-rolled loop's discipline): process, then
  idle one full interval.  The ported ``StreamingWorkload`` uses this to
  stay bit-identical with its pre-DStream history.

State meets transient servers through :class:`StateCheckpointPolicy`:
every τ = √(2·δ·MTTF) simulated seconds (``core/interval.py``, clamped to
``[min_tau, max_tau]``) the current state generation of every
:class:`~repro.streaming.dstream.StateDStream` is marked in the checkpoint
registry and its partition writes enqueued, truncating the
batch-0-to-now lineage chain.  δ starts from an estimate (or the
FTManager-style conservative memory bound) and refreshes online from the
actual byte volume of completed state checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core.interval import all_memory_delta, checkpoint_time_estimate, clamped_interval
from repro.obs import SpanEvent
from repro.streaming.dstream import DStream, SourceDStream, StateDStream
from repro.streaming.sources import (
    DEFAULT_RECORD_SIZE,
    EventSource,
    RateSource,
    StreamSource,
    TextSource,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import FlintContext
    from repro.engine.rdd import RDD

PACING_MODES = ("fixed-rate", "fixed-delay")


@dataclass
class BatchInfo:
    """Everything observed about one completed micro-batch."""

    index: int
    scheduled: float
    started: float
    finished: float
    latency: float
    records: int
    results: Dict[str, Any] = field(default_factory=dict)


@dataclass
class OutputOp:
    """One registered output action: materialises a stream every batch."""

    name: str
    stream: DStream
    action: Callable[["RDD"], Any]


@dataclass
class StateCheckpointStats:
    """Observable behaviour of the τ-periodic state checkpoint policy."""

    marks: int = 0
    delta_updates: int = 0
    tau_history: List[float] = field(default_factory=list)


class StateCheckpointPolicy:
    """τ-periodic checkpointing of streaming operator state (§3.1.1).

    The policy reuses the batch engine's machinery end-to-end: marking goes
    through the :class:`~repro.engine.checkpoint.CheckpointRegistry`, the
    partition writes are the scheduler's ordinary asynchronous checkpoint
    tasks, and once a state generation is fully durable the registry's GC
    truncates every ancestor checkpoint.  Only the *trigger* is new: batch
    boundaries, not a standalone timer, so marks always land on a coherent
    state generation.
    """

    def __init__(
        self,
        ssc: "StreamingContext",
        mttf_fn: Callable[[], float],
        initial_delta: Optional[float] = None,
        min_tau: float = 30.0,
        max_tau: Optional[float] = None,
    ):
        self.ssc = ssc
        self.mttf_fn = mttf_fn
        self.min_tau = min_tau
        self.max_tau = max_tau
        ctx = ssc.ctx
        self.delta = (
            initial_delta
            if initial_delta is not None
            else all_memory_delta(ctx.cluster, ctx.env.dfs.config)
        )
        self.tau = clamped_interval(self.delta, mttf_fn(), min_tau, max_tau)
        self.stats = StateCheckpointStats()
        self.last_mark_time = ssc.ctx.now
        self._pending_delta_refresh: List["RDD"] = []

    # -- δ and τ -----------------------------------------------------------
    def set_delta(self, delta: float) -> None:
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self.delta = delta
        self.stats.delta_updates += 1
        self.tau = clamped_interval(self.delta, self.mttf_fn(), self.min_tau, self.max_tau)
        self.stats.tau_history.append(self.tau)

    def _refresh_delta(self) -> None:
        """Fold completed state checkpoints into the online δ estimate."""
        ctx = self.ssc.ctx
        registry = ctx.checkpoints
        remaining: List["RDD"] = []
        for rdd in self._pending_delta_refresh:
            if not registry.is_fully_checkpointed(rdd):
                remaining.append(rdd)
                continue
            nbytes = sum(
                registry.partition_nbytes(rdd, p) for p in range(rdd.num_partitions)
            )
            if nbytes > 0:
                dfs = ctx.env.dfs.config
                self.set_delta(
                    checkpoint_time_estimate(
                        nbytes,
                        max(1, ctx.cluster.size),
                        dfs.write_bandwidth,
                        dfs.replication,
                    )
                )
        self._pending_delta_refresh = remaining

    # -- the batch-boundary tick ------------------------------------------
    def on_batch_complete(self, batch: int) -> None:
        self._refresh_delta()
        if math.isinf(self.tau):
            return
        ctx = self.ssc.ctx
        if ctx.now - self.last_mark_time < self.tau - 1e-9:
            return
        marked_any = False
        for stream in self.ssc.state_streams():
            rdd = stream.latest_rdd
            if rdd is None:
                continue
            registry = ctx.checkpoints
            if registry.is_fully_checkpointed(rdd):
                continue
            if not registry.is_marked(rdd):
                registry.mark(rdd)
                self.stats.marks += 1
            ctx.scheduler.enqueue_checkpoints_for(rdd)
            stream.last_checkpoint_batch = batch
            self._pending_delta_refresh.append(rdd)
            marked_any = True
        if marked_any:
            self.last_mark_time = ctx.now


class StreamingContext:
    """Drives a DStream graph one micro-batch at a time."""

    def __init__(
        self,
        ctx: "FlintContext",
        batch_interval: float,
        pacing: str = "fixed-rate",
    ):
        if batch_interval <= 0:
            raise ValueError("batch_interval must be positive")
        if pacing not in PACING_MODES:
            raise ValueError(f"pacing must be one of {PACING_MODES}")
        self.ctx = ctx
        self.batch_interval = float(batch_interval)
        self.pacing = pacing
        self.streams: List[DStream] = []
        self.outputs: List[OutputOp] = []
        self.batches: List[BatchInfo] = []
        self.policy: Optional[StateCheckpointPolicy] = None
        self.start_time: Optional[float] = None
        self._next_batch = 0
        self._validated = False

    # -- graph construction ------------------------------------------------
    def _register_stream(self, stream: DStream) -> None:
        self.streams.append(stream)

    def source(self, source: StreamSource) -> SourceDStream:
        """Attach any :class:`StreamSource` as a leaf stream."""
        return SourceDStream(self, source)

    def rate_stream(
        self,
        records_per_batch: int,
        num_partitions: int,
        record_size: int = DEFAULT_RECORD_SIZE,
        start: int = 0,
        name: str = "rate",
    ) -> SourceDStream:
        return self.source(
            RateSource(records_per_batch, num_partitions, record_size, start, name)
        )

    def event_stream(
        self,
        records_per_batch: int,
        num_partitions: int,
        num_keys: int,
        seed: int,
        record_size: int = DEFAULT_RECORD_SIZE,
        value_range: Optional[Tuple[int, int]] = None,
        label: str = "batch",
        name: str = "events",
    ) -> SourceDStream:
        return self.source(
            EventSource(
                records_per_batch, num_partitions, num_keys, seed,
                record_size, value_range, label, name,
            )
        )

    def text_stream(
        self,
        lines_per_batch: int,
        num_partitions: int,
        vocabulary: Tuple[str, ...],
        seed: int,
        words_per_line: int = 4,
        record_size: int = DEFAULT_RECORD_SIZE,
        name: str = "text",
    ) -> SourceDStream:
        return self.source(
            TextSource(
                lines_per_batch, num_partitions, vocabulary, seed,
                words_per_line, record_size, name, name,
            )
        )

    def register_output(
        self, stream: DStream, action: Callable[["RDD"], Any], name: Optional[str] = None
    ) -> str:
        """Register an output action; returns its (unique) result name."""
        if name is None:
            name = f"out-{len(self.outputs)}"
        if any(out.name == name for out in self.outputs):
            raise ValueError(f"duplicate output name {name!r}")
        self.outputs.append(OutputOp(name, stream, action))
        return name

    def enable_state_checkpointing(
        self,
        mttf: float | Callable[[], float],
        initial_delta: Optional[float] = None,
        min_tau: float = 30.0,
        max_tau: Optional[float] = None,
    ) -> StateCheckpointPolicy:
        """Turn on τ-periodic operator-state checkpointing."""
        mttf_fn = mttf if callable(mttf) else (lambda: float(mttf))
        self.policy = StateCheckpointPolicy(
            self, mttf_fn, initial_delta, min_tau, max_tau
        )
        return self.policy

    def state_streams(self) -> List[StateDStream]:
        return [s for s in self.streams if isinstance(s, StateDStream)]

    def _validate_graph(self) -> None:
        """Every state stream must feed an output, or it never materialises
        (its cogroup chain would only deepen lazily, batch after batch)."""
        reachable: set = set()
        stack = [out.stream for out in self.outputs]
        while stack:
            stream = stack.pop()
            if id(stream) in reachable:
                continue
            reachable.add(id(stream))
            stack.extend(stream.parents)
        for stream in self.state_streams():
            if id(stream) not in reachable:
                raise ValueError(
                    f"state stream {stream.name!r} has no registered output; "
                    "add one (e.g. stream.count_per_batch()) so its state "
                    "materialises every batch"
                )

    # -- driving batches ---------------------------------------------------
    def run_batch(self) -> BatchInfo:
        """Process the next micro-batch (no pacing idle in fixed-delay)."""
        if not self._validated:
            self._validate_graph()
            self._validated = True
        ctx = self.ctx
        b = self._next_batch
        if self.start_time is None:
            self.start_time = ctx.now
        if self.pacing == "fixed-rate":
            scheduled = self.start_time + b * self.batch_interval
            if ctx.now < scheduled:
                ctx.env.run_until(scheduled)
        else:
            scheduled = ctx.now
        started = ctx.now
        records = sum(
            s.source.records_in_batch(b)
            for s in self.streams
            if isinstance(s, SourceDStream)
        )
        results: Dict[str, Any] = {}
        for out in self.outputs:
            rdd = out.stream.rdd(b)
            results[out.name] = None if rdd is None else out.action(rdd)
        for stream in self.streams:
            stream.post_batch(b)
        if self.policy is not None:
            self.policy.on_batch_complete(b)
        finished = ctx.now
        info = BatchInfo(
            index=b,
            scheduled=scheduled,
            started=started,
            finished=finished,
            latency=finished - scheduled,
            records=records,
            results=results,
        )
        self.batches.append(info)
        obs = ctx.obs
        if obs.enabled:
            obs.bus.emit(
                SpanEvent(
                    kind="stream-batch",
                    name=f"batch-{b}",
                    start=started,
                    end=finished,
                    pool="streaming",
                    attrs={
                        "batch": b,
                        "scheduled": scheduled,
                        "records": records,
                        "latency": info.latency,
                    },
                )
            )
        for stream in self.streams:
            stream.release(b)
        self._next_batch = b + 1
        return info

    def run(self, num_batches: int) -> List[BatchInfo]:
        """Drive ``num_batches`` micro-batches; returns their infos."""
        if num_batches <= 0:
            raise ValueError("num_batches must be positive")
        for _ in range(num_batches):
            self.run_batch()
            if self.pacing == "fixed-delay":
                self.ctx.env.run_until(self.ctx.now + self.batch_interval)
        return self.batches[-num_batches:]

    # -- derived metrics ---------------------------------------------------
    def results(self, name: str) -> List[Any]:
        """Per-batch results of one output (None where nothing emitted)."""
        return [info.results.get(name) for info in self.batches]

    def latencies(self) -> List[float]:
        return [info.latency for info in self.batches]

    def total_records(self) -> int:
        return sum(info.records for info in self.batches)

    def sustained_records_per_second(self) -> float:
        """Simulated ingest rate over the whole run (records / stream span)."""
        if not self.batches:
            return 0.0
        span = self.batches[-1].finished - self.batches[0].scheduled
        if span <= 0:
            return 0.0
        return self.total_records() / span
