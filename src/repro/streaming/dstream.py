"""Discretised streams: batch-indexed RDD graphs (Spark Streaming's model).

A :class:`DStream` is a function from batch index to RDD.  Transformations
build derived streams lazily; nothing materialises until the
:class:`~repro.streaming.context.StreamingContext` drives a batch and runs
the registered output actions.  Because every batch lowers to ordinary
RDDs, the whole existing execution stack — incremental scheduler, fused
narrow chains, columnar batch kernels — applies to streaming jobs
unchanged, and the bit-identical contract the two data planes carry extends
to streams for free.

Closure discipline: the per-record functions passed to ``map``/``filter``/
``flat_map``/``update_state_by_key`` are re-run on every lineage
recomputation, so they must capture plain data and pure functions only
(never a DStream, RDD, or context).  The builder callables (``transform``)
run once per batch and are free to capture anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.streaming.sources import StreamSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.rdd import RDD
    from repro.streaming.context import StreamingContext


# ----------------------------------------------------------------------
# Closure factories for the state plane: module-level so the returned
# functions capture only the user function, never a DStream or context.
# ----------------------------------------------------------------------
def _merge_record(merge_fn: Callable[[Any, Any], Any], zero: Any):
    """Fold one cogroup row ``(key, (olds, news))`` into ``(key, merged)``."""

    def fold(kv):
        key, (olds, news) = kv
        old = olds[0] if olds else zero
        new = news[0] if news else zero
        return (key, merge_fn(old, new))

    return fold


def _initial_update(update_fn: Callable[[List[Any], Any], Any]):
    """First-batch update: grouped values, no prior state."""

    def apply(kv):
        key, values = kv
        return (key, update_fn(list(values), None))

    return apply


def _cogroup_update(update_fn: Callable[[List[Any], Any], Any]):
    """Steady-state update over ``(key, (old_states, new_values))`` rows."""

    def apply(kv):
        key, (olds, news) = kv
        return (key, update_fn(list(news), olds[0] if olds else None))

    return apply


def _state_not_none(kv) -> bool:
    return kv[1] is not None


class DStream:
    """One discretised stream: ``rdd(b)`` is batch ``b`` as an RDD.

    Computed RDDs are memoised per batch and retired once no downstream
    consumer can need them again (``keep`` tracks the deepest window over
    this stream).  Subclasses implement :meth:`compute`; a ``None`` return
    means the stream emits nothing at that batch (sliding windows between
    emission points).
    """

    def __init__(self, ssc: "StreamingContext", parents: tuple = ()):
        self.ssc = ssc
        self.parents = tuple(parents)
        #: Batches of history consumers need (windows raise it via require).
        self.keep = 1
        self._rdds: Dict[int, "RDD"] = {}
        self._persisted = False
        ssc._register_stream(self)

    # -- batch -> RDD ------------------------------------------------------
    def compute(self, batch: int) -> Optional["RDD"]:
        raise NotImplementedError

    def rdd(self, batch: int) -> Optional["RDD"]:
        """The (memoised) RDD for one batch, or None when nothing emits."""
        if batch in self._rdds:
            return self._rdds[batch]
        rdd = self.compute(batch)
        if rdd is not None:
            if self._persisted:
                rdd.persist()
            self._rdds[batch] = rdd
        return rdd

    def require(self, batches: int) -> None:
        """A consumer needs the last ``batches`` batches of this stream."""
        self.keep = max(self.keep, batches)

    def post_batch(self, batch: int) -> None:
        """Hook run after batch ``batch``'s output actions complete."""

    def release(self, batch: int) -> None:
        """Retire memoised RDDs that fell out of the retention horizon."""
        horizon = batch - self.keep + 1
        for b in [b for b in self._rdds if b < horizon]:
            rdd = self._rdds.pop(b)
            if self._persisted and rdd.persisted:
                rdd.unpersist()

    def persist(self) -> "DStream":
        """Cache every batch RDD while it is inside the retention horizon.

        Windowed consumers re-read the same parent batches ``window/slide``
        times; persisting trades cluster memory for recomputation, exactly
        like Spark Streaming's default window persistence.
        """
        self._persisted = True
        return self

    # -- transformations ---------------------------------------------------
    def transform(self, build: Callable[["RDD"], "RDD"]) -> "DStream":
        """Arbitrary per-batch RDD-to-RDD transform (driver-side builder)."""
        return TransformedDStream(self.ssc, self, build)

    def map(self, fn: Callable[[Any], Any], compute_multiplier: float = 1.0) -> "DStream":
        return self.transform(lambda rdd: rdd.map(fn, compute_multiplier))

    def filter(self, predicate: Callable[[Any], bool]) -> "DStream":
        return self.transform(lambda rdd: rdd.filter(predicate))

    def flat_map(
        self, fn: Callable[[Any], Any], compute_multiplier: float = 1.0
    ) -> "DStream":
        return self.transform(lambda rdd: rdd.flat_map(fn, compute_multiplier))

    def map_values(self, fn: Callable[[Any], Any]) -> "DStream":
        return self.transform(lambda rdd: rdd.map_values(fn))

    def reduce_by_key(
        self, fn: Callable[[Any, Any], Any], num_partitions: Optional[int] = None
    ) -> "DStream":
        return self.transform(lambda rdd: rdd.reduce_by_key(fn, num_partitions))

    # -- windows -----------------------------------------------------------
    def window(self, window: int, slide: Optional[int] = None) -> "DStream":
        """Union of the last ``window`` batches, emitted every ``slide``.

        Both are batch counts; ``slide`` defaults to ``window`` (tumbling).
        The first emission waits for a full window.
        """
        return WindowedDStream(self.ssc, self, window, slide)

    def reduce_by_key_and_window(
        self,
        fn: Callable[[Any, Any], Any],
        window: int,
        slide: Optional[int] = None,
        num_partitions: Optional[int] = None,
    ) -> "DStream":
        return self.window(window, slide).reduce_by_key(fn, num_partitions)

    # -- state -------------------------------------------------------------
    def update_state_by_key(
        self,
        update_fn: Callable[[List[Any], Any], Any],
        num_partitions: Optional[int] = None,
        record_size: Optional[int] = None,
        name: str = "state",
    ) -> "StateDStream":
        """Fold each batch into per-key running state (Spark's API).

        ``update_fn(new_values, old_state) -> new_state`` runs once per key
        per batch; returning ``None`` drops the key from the state.
        """
        return StateDStream(
            self.ssc,
            self,
            update_fn=update_fn,
            num_partitions=num_partitions,
            record_size=record_size,
            name=name,
        )

    def merge_state_by_key(
        self,
        merge_fn: Callable[[Any, Any], Any],
        zero: Any = 0,
        num_partitions: Optional[int] = None,
        record_size: Optional[int] = None,
        name: str = "state",
    ) -> "StateDStream":
        """State fold for pre-aggregated batches (adopt-then-merge).

        The first batch's RDD *becomes* the state (no extra shuffle or map);
        later batches fold via ``cogroup`` + ``merge_fn(old, new)`` with
        ``zero`` standing in for absent sides.  This is the exact lowering
        of the legacy hand-rolled streaming loop, which is what keeps the
        ported ``StreamingWorkload`` bit-identical to it.
        """
        return StateDStream(
            self.ssc,
            self,
            merge_fn=merge_fn,
            zero=zero,
            num_partitions=num_partitions,
            record_size=record_size,
            name=name,
        )

    # -- outputs -----------------------------------------------------------
    def foreach_rdd(self, action: Callable[["RDD"], Any], name: Optional[str] = None) -> str:
        """Register a driver-side output action run on every emitted batch."""
        return self.ssc.register_output(self, action, name)

    def count_per_batch(self, name: Optional[str] = None) -> str:
        """Output action: count each batch's records."""
        return self.foreach_rdd(_action_count, name)

    def collect_per_batch(self, name: Optional[str] = None) -> str:
        """Output action: collect each batch to the driver."""
        return self.foreach_rdd(_action_collect, name)


def _action_count(rdd: "RDD") -> int:
    return rdd.count()


def _action_collect(rdd: "RDD") -> List[Any]:
    return rdd.collect()


class SourceDStream(DStream):
    """Leaf stream backed by a replayable :class:`StreamSource`.

    Keeps a permanent ``batch -> rdd_id`` map (ints only) so recovery tests
    can assert *which* source batches were recomputed after a revocation.
    """

    def __init__(self, ssc: "StreamingContext", source: StreamSource):
        super().__init__(ssc)
        self.source = source
        self.rdd_ids: Dict[int, int] = {}

    def compute(self, batch: int) -> "RDD":
        src = self.source
        rdd = self.ssc.ctx.generate(
            src.generator_for(batch),
            src.num_partitions,
            record_size=src.record_size,
            compute_multiplier=src.compute_multiplier,
            name=f"{src.name}-{batch}",
        )
        self.rdd_ids[batch] = rdd.rdd_id
        return rdd


class TransformedDStream(DStream):
    """Per-batch RDD transform of one parent stream."""

    def __init__(
        self, ssc: "StreamingContext", parent: DStream, build: Callable[["RDD"], "RDD"]
    ):
        super().__init__(ssc, parents=(parent,))
        self.build = build

    def compute(self, batch: int) -> Optional["RDD"]:
        parent = self.parents[0].rdd(batch)
        if parent is None:
            return None
        return self.build(parent)


class WindowedDStream(DStream):
    """Sliding/tumbling union over the parent's last ``window`` batches.

    Emits at batch ``b`` when a full window ``[b-window+1, b]`` is available
    and ``b`` lands on the slide grid; other batches yield ``None``.  The
    parent's retention horizon is raised to ``window`` so the unioned RDDs
    are the *same objects* across overlapping windows (no re-derivation,
    and persisted parents are fetched from cache).
    """

    def __init__(
        self,
        ssc: "StreamingContext",
        parent: DStream,
        window: int,
        slide: Optional[int] = None,
    ):
        if window <= 0:
            raise ValueError("window must be a positive batch count")
        slide = window if slide is None else slide
        if slide <= 0:
            raise ValueError("slide must be a positive batch count")
        super().__init__(ssc, parents=(parent,))
        self.window_batches = window
        self.slide_batches = slide
        parent.require(window)

    def emits_at(self, batch: int) -> bool:
        done = batch + 1  # batches completed once `batch` lands
        return done >= self.window_batches and (
            (done - self.window_batches) % self.slide_batches == 0
        )

    def compute(self, batch: int) -> Optional["RDD"]:
        if not self.emits_at(batch):
            return None
        from repro.engine.transformations import UnionRDD

        parent = self.parents[0]
        members = [
            parent.rdd(i)
            for i in range(batch - self.window_batches + 1, batch + 1)
        ]
        if any(m is None for m in members):  # pragma: no cover - defensive
            raise RuntimeError("window over a non-emitting parent stream")
        if len(members) == 1:
            return members[0]
        return UnionRDD(self.ssc.ctx, members)


class StateDStream(DStream):
    """Per-key running state folded batch-by-batch (``updateStateByKey``).

    Each batch's state RDD is persisted and given a stable name
    (``{name}-{b}``); the previous batch's state is unpersisted *after* the
    batch's outputs run, so exactly one state generation is cached at a
    time.  Lineage still chains every generation back to batch 0 — the
    τ-periodic :class:`~repro.streaming.context.StateCheckpointPolicy`
    truncates it by checkpointing the current generation, which is what
    bounds recovery after a late revocation.
    """

    def __init__(
        self,
        ssc: "StreamingContext",
        parent: DStream,
        update_fn: Optional[Callable[[List[Any], Any], Any]] = None,
        merge_fn: Optional[Callable[[Any, Any], Any]] = None,
        zero: Any = 0,
        num_partitions: Optional[int] = None,
        record_size: Optional[int] = None,
        name: str = "state",
    ):
        if (update_fn is None) == (merge_fn is None):
            raise ValueError("exactly one of update_fn/merge_fn is required")
        super().__init__(ssc, parents=(parent,))
        self.update_fn = update_fn
        self.merge_fn = merge_fn
        self.zero = zero
        self.num_partitions = num_partitions
        self.record_size = record_size
        self.name = name
        #: Current state generation (the latest computed batch's RDD).
        self.latest_rdd: Optional["RDD"] = None
        self.latest_batch: Optional[int] = None
        #: Batch whose state generation was last marked for checkpointing
        #: (set by the state checkpoint policy; None = never).
        self.last_checkpoint_batch: Optional[int] = None
        self.state_rdd_ids: Dict[int, int] = {}
        self._retire: Optional["RDD"] = None

    def compute(self, batch: int) -> "RDD":
        parent = self.parents[0].rdd(batch)
        if parent is None:  # pragma: no cover - defensive
            raise RuntimeError("state stream over a non-emitting parent")
        prev = self.latest_rdd
        if self.merge_fn is not None:
            if prev is None:
                state = parent  # adopt: the first batch *is* the state
            else:
                state = prev.cogroup(parent, self.num_partitions).map(
                    _merge_record(self.merge_fn, self.zero)
                )
                if self.record_size is not None:
                    state = state.set_record_size(self.record_size)
        else:
            if prev is None:
                state = (
                    parent.group_by_key(self.num_partitions)
                    .map(_initial_update(self.update_fn))
                    .filter(_state_not_none)
                )
            else:
                state = prev.cogroup(parent, self.num_partitions).map(
                    _cogroup_update(self.update_fn)
                ).filter(_state_not_none)
            if self.record_size is not None:
                state = state.set_record_size(self.record_size)
        state = state.persist().set_name(f"{self.name}-{batch}")
        self._retire = prev
        self.latest_rdd = state
        self.latest_batch = batch
        self.state_rdd_ids[batch] = state.rdd_id
        return state

    def post_batch(self, batch: int) -> None:
        """Unpersist the superseded state generation (after outputs ran)."""
        retire = self._retire
        if retire is not None and retire.persisted:
            retire.unpersist()
        self._retire = None
