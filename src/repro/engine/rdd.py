"""Resilient Distributed Datasets.

An RDD is an immutable, partitioned dataset defined by its lineage: either a
source (driver data or generated input) or a deterministic transformation of
parent RDDs.  RDDs are lazy — transformations build the lineage graph, and
only actions (``collect``, ``count``, ...) trigger execution through the
context's scheduler.  Lost partitions are recomputed from lineage, from the
youngest cached ancestor, or from the youngest *checkpointed* ancestor — the
mechanism Flint's policies drive.
"""

from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.engine.declared import MapValues
from repro.engine.dependencies import GROUP, Dependency, identity
from repro.engine.partitioner import HashPartitioner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import FlintContext
    from repro.engine.task_runtime import TaskRuntime

#: Fallback virtual record size (bytes) when nothing better is known.
DEFAULT_RECORD_SIZE = 100


class RDD:
    """Base class for all RDDs.

    Args:
        context: owning :class:`~repro.engine.context.FlintContext`.
        dependencies: lineage edges to parent RDDs.
        num_partitions: partition count of this dataset.
        record_size: virtual bytes per record for time/memory accounting;
            inherited from the first parent when not given.
        compute_multiplier: relative CPU cost of producing one record of this
            RDD (1.0 = the cost model's base streaming rate).
        name: debug label shown in plans and logs.
    """

    def __init__(
        self,
        context: "FlintContext",
        dependencies: List[Dependency],
        num_partitions: int,
        record_size: Optional[int] = None,
        compute_multiplier: float = 1.0,
        name: Optional[str] = None,
    ):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.context = context
        self.rdd_id = context._next_rdd_id()
        self.dependencies = dependencies
        self.num_partitions = int(num_partitions)
        self._record_size = record_size
        #: Memoised inherited record size: ``(sizing_epoch, value)``.  The
        #: context-wide epoch bumps on any ``set_record_size`` so stale
        #: entries self-invalidate without a graph walk.
        self._record_size_memo: Optional[Tuple[int, int]] = None
        self.compute_multiplier = float(compute_multiplier)
        self.name = name or type(self).__name__
        self.persisted = False
        self.disk_persist = False
        self.manual_checkpoint = False
        # Set for post-shuffle RDDs so joins can avoid redundant shuffles.
        self.partitioner: Optional[HashPartitioner] = None
        #: How many lineage edges point at this RDD.  An RDD consumed by
        #: more than one dependant must stay a fusion boundary: it is
        #: computed (and charged) once per task and served to each consumer
        #: from the ``TaskRuntime.iterator`` memo.
        self.dependents = 0
        for dep in dependencies:
            dep.rdd.dependents += 1
        context._register_rdd(self)

    # ------------------------------------------------------------------
    # Core contract
    # ------------------------------------------------------------------
    #: True for single-narrow-parent operators, which run as stages of a
    #: fused chain and are defined by :meth:`compute_fused` (plus an
    #: optional :meth:`batch_kernel`).  Sources and shuffle consumers stay
    #: False — they are pipeline breakers and define :meth:`compute`.
    supports_fusion = False

    def compute(self, split: int, runtime: "TaskRuntime", as_batch: bool = False) -> Any:
        """Produce the records of partition ``split`` (pure, deterministic).

        Implemented by pipeline breakers only; inputs are reached through
        ``runtime.iterator`` (``runtime.batch_iterator`` where a batch is
        wanted) / ``runtime.shuffle_fetch``.  ``as_batch`` says
        the caller can take a :class:`~repro.engine.columnar.ColumnarBatch`
        (one ``from_records`` would build from the rows) in place of rows;
        rows are always a valid answer.
        """
        raise NotImplementedError

    def compute_fused(self, records: Any, split: int) -> List[Any]:
        """Produce partition ``split`` from the parent's record stream.

        Implemented by fusable operators only: ``records`` is an iterable
        of the (sole contributing) parent partition's records, already
        resolved by the task runtime.  Pure and deterministic.
        """
        raise NotImplementedError

    def batch_kernel(self, split: int) -> Optional[Callable]:
        """The stage's ``ColumnarBatch -> ColumnarBatch`` kernel, or None:
        an operator's built-in one, or a declared row function's
        (:func:`~repro.engine.declared.kernel_of`).

        The columnar plane lowers a fused chain to batch kernels only when
        *every* stage provides one; None (the default) keeps the stage — and
        therefore any chain through it — on the row plane.  A kernel must
        satisfy the bit-identity contract: applied to the columnarised parent
        records it produces exactly ``compute_fused``'s records, in order,
        with the same record count (charges replay from batch lengths).  It
        may raise :class:`~repro.engine.columnar.ColumnarUnsupported` when
        the runtime schema does not fit — the chain falls back to rows.
        """
        return None

    @property
    def record_size(self) -> int:
        """Virtual bytes per record (own hint, else inherited, else default).

        Inherited answers are memoised per RDD against the context's sizing
        epoch: lineage chains grow one node per transformation, so without
        the memo every charge on a late-iteration RDD re-walks the whole
        graph back to its source.
        """
        if self._record_size is not None:
            return self._record_size
        ctx = self.context
        memo = self._record_size_memo
        if memo is not None and memo[0] == ctx.sizing_epoch:
            ctx.record_size_memo_hits += 1
            return memo[1]
        ctx.record_size_memo_misses += 1
        if self.dependencies:
            value = self.dependencies[0].rdd.record_size
        else:
            value = DEFAULT_RECORD_SIZE
        self._record_size_memo = (ctx.sizing_epoch, value)
        return value

    def set_record_size(self, nbytes: int) -> "RDD":
        """Override the virtual record size hint (returns self for chaining)."""
        if nbytes <= 0:
            raise ValueError("record size must be positive")
        self._record_size = int(nbytes)
        # Descendants may have memoised the old inherited value.
        self.context.sizing_epoch += 1
        return self

    def set_name(self, name: str) -> "RDD":
        self.name = name
        return self

    def partition_bytes(self, record_count: int) -> int:
        """Virtual size of a partition holding ``record_count`` records."""
        return max(1, record_count) * self.record_size

    # ------------------------------------------------------------------
    # Persistence and checkpointing controls
    # ------------------------------------------------------------------
    def persist(self, use_disk: bool = False) -> "RDD":
        """Keep computed partitions in the distributed memory cache.

        ``use_disk=False`` is Spark's default MEMORY_ONLY level: partitions
        evicted under memory pressure are dropped and recomputed from
        lineage.  ``use_disk=True`` (MEMORY_AND_DISK) spills evictions to
        the worker's local SSD instead.
        """
        self.persisted = True
        self.disk_persist = use_disk
        return self

    def unpersist(self) -> "RDD":
        """Stop caching and drop existing cached partitions."""
        self.persisted = False
        self.context.drop_cached_rdd(self)
        return self

    def checkpoint(self) -> "RDD":
        """Manually mark this RDD for checkpointing (Spark's explicit API).

        Flint normally drives checkpointing automatically; this is the
        programmer-facing escape hatch the paper's §3 describes.
        """
        self.manual_checkpoint = True
        return self

    @property
    def is_checkpointed(self) -> bool:
        """True once all partitions are durably checkpointed."""
        return self.context.checkpoints.is_fully_checkpointed(self)

    # ------------------------------------------------------------------
    # Transformations (lazy)
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], compute_multiplier: float = 1.0) -> "RDD":
        """Apply ``fn`` to every record.

        A row function declared for ``map`` (``declared.Pair``; see
        :mod:`repro.engine.declared`) brings its own kernel, so the stage
        can lower to the columnar plane (see :meth:`batch_kernel`).
        """
        from repro.engine import transformations as t

        return t.MappedRDD(self, fn, compute_multiplier)

    def filter(self, predicate: Callable[[Any], bool]) -> "RDD":
        """Keep records where ``predicate`` is true."""
        from repro.engine import transformations as t

        return t.FilteredRDD(self, predicate)

    def flat_map(self, fn: Callable[[Any], Any], compute_multiplier: float = 1.0) -> "RDD":
        """Apply ``fn`` and flatten the resulting iterables; a row function
        declared for ``flat_map`` (``declared.Split``) brings its own kernel."""
        from repro.engine import transformations as t

        return t.FlatMappedRDD(self, fn, compute_multiplier)

    def union(self, other: "RDD") -> "RDD":
        """Concatenate two RDDs (no dedup), preserving partition counts."""
        from repro.engine import transformations as t

        return t.UnionRDD(self.context, [self, other])

    def key_by(self, fn: Callable[[Any], Any]) -> "RDD":
        """Turn records into ``(fn(record), record)`` pairs."""
        return self.map(lambda x: (fn(x), x))

    def map_values(self, fn: Callable[[Any], Any]) -> "RDD":
        """Map over pair values, preserving keys and partitioning.

        The stage is ``declared.MapValues(fn)``: a ``fn`` declared for
        ``map`` has its kernel run over the value column, beside the keys.
        """
        from repro.engine import transformations as t

        rdd = t.MappedRDD(self, MapValues(fn))
        rdd.partitioner = self.partitioner
        return rdd

    # -- shuffles ----------------------------------------------------------
    def _default_partitions(self, num_partitions: Optional[int]) -> int:
        return num_partitions or self.num_partitions

    def combine_by_key(
        self,
        create_combiner: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        """The general keyed aggregation primitive (with map-side combine).

        Treat combiners as immutable, as in Spark: a shuffle file keeps
        the map side's combiners, and a key held by one map output reaches
        the reducer's output as that very object.
        """
        from repro.engine import transformations as t

        partitioner = HashPartitioner(self._default_partitions(num_partitions))
        return t.ShuffledRDD(self, partitioner, (create_combiner, merge_value, merge_combiners))

    def reduce_by_key(self, fn: Callable[[Any, Any], Any], num_partitions: Optional[int] = None) -> "RDD":
        """Merge values per key with an associative function (or ``Sum()``)."""
        return self.combine_by_key(identity, fn, fn, num_partitions)

    def group_by_key(self, num_partitions: Optional[int] = None) -> "RDD":
        """Group values per key into a fresh list each, in map order (combined
        map-side, unlike Spark; see ``ShuffleDependency.declared``)."""
        return self.combine_by_key(*GROUP, num_partitions)

    def cogroup(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Group both RDDs' values per key into ``(key, (vs_self, vs_other))``."""
        from repro.engine import transformations as t

        partitioner = HashPartitioner(self._default_partitions(num_partitions))
        return t.CoGroupedRDD(self.context, [self, other], partitioner)

    # ------------------------------------------------------------------
    # Actions (eager — trigger a job)
    # ------------------------------------------------------------------
    def collect(self) -> List[Any]:
        """Materialise every record at the driver."""
        parts = self.context.run_job(self, lambda records: records)
        out: List[Any] = []
        for part in parts:
            out.extend(part)
        return out

    def count(self) -> int:
        """Number of records."""
        return sum(self.context.run_job(self, len))

    def fold(self, zero: Any, fn: Callable[[Any, Any], Any]) -> Any:
        """Fold with a zero element (applied per partition, then combined)."""
        partials = self.context.run_job(self, lambda rs: functools.reduce(fn, rs, zero))
        return functools.reduce(fn, partials, zero)

    def sum(self) -> Any:
        """Sum of the records."""
        return self.fold(0, operator.add)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}(id={self.rdd_id}, partitions={self.num_partitions})"
