"""Concrete RDD implementations.

Sources and shuffle consumers implement ``compute(split, runtime)``, reaching
their inputs through the task runtime (which resolves caches, checkpoints,
and shuffle outputs); single-parent narrow operators implement
``compute_fused(records, split)`` over the parent's already-resolved records
(plus an optional ``batch_kernel``: built in, or a declared row function's
kernel) and run as stages of a fused chain.
Either way the body is a *pure* function of its parents' records.  Purity is
what makes lineage recomputation after a revocation return byte-identical
results — an invariant the property-based tests hammer on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.buckets import hash_sort_key, merge_reduce_buckets
from repro.engine.columnar import MIN_LOWERED_ROWS, ColumnarBatch, cogroup
from repro.engine.declared import Identity, kernel_of
from repro.engine.dependencies import (
    OneToOneDependency,
    RangeDependency,
    ShuffleDependency,
)
from repro.engine.partitioner import HashPartitioner
from repro.engine.rdd import RDD
from repro.engine.sizeof import estimate_record_size
from repro.simulation.rng import SeededRNG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import FlintContext
    from repro.engine.task_runtime import TaskRuntime


_IDENTITY = Identity()


class ParallelCollectionRDD(RDD):
    """Source RDD from driver-side data, split into even slices."""

    def __init__(
        self,
        context: "FlintContext",
        data: List[Any],
        num_partitions: int,
        record_size: Optional[int] = None,
    ):
        if record_size is None and data:
            record_size = estimate_record_size(data)
        super().__init__(context, [], num_partitions, record_size, name="parallelize")
        self._slices = self._slice(list(data), num_partitions)

    @staticmethod
    def _slice(data: List[Any], n: int) -> List[List[Any]]:
        length = len(data)
        return [data[(i * length) // n : ((i + 1) * length) // n] for i in range(n)]

    def compute(self, split: int, runtime: "TaskRuntime", as_batch: bool = False) -> List[Any]:
        return list(self._slices[split])


class GeneratedRDD(RDD):
    """Source RDD whose partitions come from a deterministic generator.

    Models reading input from stable storage (S3/HDFS): the generator stands
    in for the stored bytes, and ``compute_multiplier`` captures the fetch +
    deserialise + repartition cost the paper observes when interactive state
    must be rebuilt from source (§5.4).  A generator returns its records as
    rows or as a :class:`ColumnarBatch` (``columnar.columns``); a batch is
    passed through as it is, for the task runtime to turn into rows only
    where they are needed.
    """

    def __init__(
        self,
        context: "FlintContext",
        generator: Callable[[int], Any],
        num_partitions: int,
        record_size: Optional[int] = None,
        compute_multiplier: float = 2.0,
        name: str = "source",
    ):
        super().__init__(
            context, [], num_partitions, record_size, compute_multiplier, name=name
        )
        self._generator = generator

    def compute(self, split: int, runtime: "TaskRuntime", as_batch: bool = False) -> Any:
        data = self._generator(split)
        return data if type(data) is ColumnarBatch else list(data)


class MappedRDD(RDD):
    """One-to-one record transformation; a row function declared for
    ``map`` (``declared.Pair``, ``declared.MapValues``) brings its kernel."""

    supports_fusion = True

    def __init__(self, parent: RDD, fn: Callable[[Any], Any], compute_multiplier: float = 1.0):
        super().__init__(
            parent.context,
            [OneToOneDependency(parent)],
            parent.num_partitions,
            compute_multiplier=compute_multiplier,
            name="map",
        )
        self._fn = fn
        self._kernel = kernel_of(fn, "map")

    def compute_fused(self, records: Any, split: int) -> List[Any]:
        return [self._fn(x) for x in records]

    def batch_kernel(self, split: int) -> Optional[Callable]:
        return self._kernel


class FilteredRDD(RDD):
    """Keeps records matching a predicate (on the row plane)."""

    supports_fusion = True

    def __init__(self, parent: RDD, predicate: Callable[[Any], bool]):
        super().__init__(
            parent.context, [OneToOneDependency(parent)], parent.num_partitions, name="filter"
        )
        self._predicate = predicate
        self.partitioner = parent.partitioner

    def compute_fused(self, records: Any, split: int) -> List[Any]:
        return [x for x in records if self._predicate(x)]


class FlatMappedRDD(RDD):
    """Maps each record to an iterable and flattens; a row function
    declared for ``flat_map`` (``declared.Split``) brings its kernel."""

    supports_fusion = True

    def __init__(self, parent: RDD, fn: Callable[[Any], Any], compute_multiplier: float = 1.0):
        super().__init__(
            parent.context,
            [OneToOneDependency(parent)],
            parent.num_partitions,
            compute_multiplier=compute_multiplier,
            name="flatMap",
        )
        self._fn = fn
        self._kernel = kernel_of(fn, "flat_map")

    def compute_fused(self, records: Any, split: int) -> List[Any]:
        out: List[Any] = []
        extend = out.extend
        fn = self._fn
        for x in records:
            extend(fn(x))
        return out

    def batch_kernel(self, split: int) -> Optional[Callable]:
        return self._kernel


class MapPartitionsRDD(RDD):
    """Applies a function to an entire partition at once."""

    supports_fusion = True

    def __init__(
        self,
        parent: RDD,
        fn: Callable[[List[Any]], List[Any]],
        compute_multiplier: float = 1.0,
    ):
        super().__init__(
            parent.context,
            [OneToOneDependency(parent)],
            parent.num_partitions,
            compute_multiplier=compute_multiplier,
            name="mapPartitions",
        )
        self._fn = fn

    def compute_fused(self, records: Any, split: int) -> List[Any]:
        # The user function gets a private list copy, exactly as unfused:
        # it may mutate its argument, and ``records`` can be a cached
        # partition the block manager still owns.
        return list(self._fn(list(records)))


class PartitionIndexedRDD(RDD):
    """Tags each record with a deterministic ``(partition, index)`` key.

    Used by ``repartition`` so the redistribution is a pure function of the
    data — recomputation after a failure lands every record in the same
    reduce bucket it originally went to.
    """

    supports_fusion = True

    def __init__(self, parent: RDD):
        super().__init__(
            parent.context, [OneToOneDependency(parent)], parent.num_partitions, name="indexKey"
        )

    def compute_fused(self, records: Any, split: int) -> List[Any]:
        return [((split, i), x) for i, x in enumerate(records)]

    def batch_kernel(self, split: int) -> Optional[Callable]:
        # Built-in: prepend a ((split, i), ·) key column pair — pure array
        # construction, valid for any columnarisable payload schema.
        def kernel(batch: ColumnarBatch) -> ColumnarBatch:
            n = batch.length
            part = np.full(n, split, dtype=np.int64)
            idx = np.arange(n, dtype=np.int64)
            return ColumnarBatch(
                ("tuple", (("tuple", ("i8", "i8")), batch.schema)),
                ((part, idx), batch.data),
                n,
            )

        return kernel


class ZipWithIndexRDD(RDD):
    """Pairs records with global indices from precomputed partition offsets."""

    supports_fusion = True

    def __init__(self, parent: RDD, offsets: List[int]):
        if len(offsets) != parent.num_partitions:
            raise ValueError("need one offset per partition")
        super().__init__(
            parent.context, [OneToOneDependency(parent)], parent.num_partitions,
            name="zipWithIndex",
        )
        self._offsets = list(offsets)

    def compute_fused(self, records: Any, split: int) -> List[Any]:
        base = self._offsets[split]
        return [(x, base + i) for i, x in enumerate(records)]

    def batch_kernel(self, split: int) -> Optional[Callable]:
        base = self._offsets[split]

        def kernel(batch: ColumnarBatch) -> ColumnarBatch:
            idx = np.arange(base, base + batch.length, dtype=np.int64)
            return ColumnarBatch(
                ("tuple", (batch.schema, "i8")), (batch.data, idx), batch.length
            )

        return kernel


class SampledRDD(RDD):
    """Deterministic Bernoulli sampling (seeded per partition)."""

    supports_fusion = True

    def __init__(self, parent: RDD, fraction: float, seed: int = 0):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        super().__init__(
            parent.context, [OneToOneDependency(parent)], parent.num_partitions, name="sample"
        )
        self._fraction = fraction
        self._seed = seed

    def compute_fused(self, records: Any, split: int) -> List[Any]:
        # Seeded by (user seed, partition) only — not the RDD id — so the
        # same pipeline built twice samples identically.
        rng = SeededRNG(self._seed, f"sample-{split}")
        if type(records) is not list:
            records = list(records)
        if not records:
            return []
        mask = rng.random(len(records)) < self._fraction
        return [x for x, keep in zip(records, mask) if keep]

    def batch_kernel(self, split: int) -> Optional[Callable]:
        # Built-in: the same seeded RNG draws the same mask over the same
        # record count, so the selected subset is identical to the row plane.
        fraction = self._fraction
        seed = self._seed

        def kernel(batch: ColumnarBatch) -> ColumnarBatch:
            rng = SeededRNG(seed, f"sample-{split}")
            mask = np.asarray(rng.random(batch.length) < fraction)
            return batch.select(mask)

        return kernel


class UnionRDD(RDD):
    """Concatenation of several RDDs via range dependencies.

    Fuses as an identity stage: each output partition maps to exactly one
    parent partition through its :class:`RangeDependency`, so a narrow chain
    can run straight through a union without a materialisation stop.
    """

    supports_fusion = True

    def __init__(self, context: "FlintContext", parents: List[RDD]):
        if not parents:
            raise ValueError("union of zero RDDs")
        deps = []
        offset = 0
        for parent in parents:
            deps.append(RangeDependency(parent, 0, offset, parent.num_partitions))
            offset += parent.num_partitions
        super().__init__(context, deps, offset, name="union")

    def compute_fused(self, records: Any, split: int) -> List[Any]:
        return list(records)

    def batch_kernel(self, split: int) -> Optional[Callable]:
        # Columns are never written in place, so the same batch passes
        # through (the row form's list() copy exists only to protect cached
        # rows from downstream mutation, which columns cannot see).
        return _IDENTITY.kernel


class ShuffledRDD(RDD):
    """Reduce side of a hash shuffle, with optional aggregation.

    With an aggregator (reduceByKey/combineByKey) values are merged map-side
    into combiners and merged again here; without one (partitionBy) the
    records pass through bucketed but untouched.  A declared combine's
    combiners (``Sum``, ``Group``) arrive as columns and, for a caller that
    takes a batch, merge by sort (``merge_reduce_buckets``).
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: HashPartitioner,
        aggregator: Optional[Tuple[Callable, Callable, Callable]] = None,
        map_side_combine: bool = False,
    ):
        dep = ShuffleDependency(parent, partitioner, aggregator, map_side_combine)
        super().__init__(
            parent.context, [dep], partitioner.num_partitions, name="shuffle"
        )
        self.partitioner = partitioner

    @property
    def shuffle_dependency(self) -> ShuffleDependency:
        return self.dependencies[0]

    def compute(self, split: int, runtime: "TaskRuntime", as_batch: bool = False) -> Any:
        dep = self.shuffle_dependency
        return merge_reduce_buckets(dep, runtime.shuffle_fetch(dep, split), as_batch)


class CoGroupedRDD(RDD):
    """Groups two (or more) keyed RDDs by key: ``(k, ([vs_0], [vs_1], ...))``.

    As in Spark, a parent already hash-partitioned by the same partitioner
    contributes through a *narrow* dependency — its partition ``p`` holds
    exactly the keys of output partition ``p`` — so iterative joins against
    a pre-partitioned dataset (PageRank's ``links``) shuffle only the small
    side.  For a caller that takes a batch, two sides that both arrive as
    ``i8``-keyed batches of at least ``MIN_LOWERED_ROWS`` records group by
    sort (``columnar.cogroup``) into the batch of the rows below.
    """

    def __init__(self, context: "FlintContext", parents: List[RDD], partitioner: HashPartitioner):
        if len(parents) < 2:
            raise ValueError("cogroup needs at least two parents")
        deps: List = []
        for parent in parents:
            if parent.partitioner == partitioner:
                deps.append(OneToOneDependency(parent))
            else:
                deps.append(ShuffleDependency(parent, partitioner, aggregator=None))
        super().__init__(context, deps, partitioner.num_partitions, name="cogroup")
        self.partitioner = partitioner

    def compute(self, split: int, runtime: "TaskRuntime", as_batch: bool = False) -> Any:
        deps = self.dependencies
        n = len(deps)
        sides = [
            runtime.shuffle_fetch(dep, split)
            if isinstance(dep, ShuffleDependency)
            else [(runtime.batch_iterator if as_batch else runtime.iterator)(dep.rdd, split)]
            for dep in deps
        ]
        if as_batch and n == 2:
            # By sort, when both sides arrived as one batch each, large
            # enough to pay; every input was resolved once, above.
            left, right = (
                sources[0] if len(sources) == 1 else None for sources in sides
            )
            if (
                type(left) is ColumnarBatch
                and type(right) is ColumnarBatch
                and min(left.length, right.length) >= MIN_LOWERED_ROWS
            ):
                grouped = cogroup(left, right)
                if grouped is not None:
                    return grouped
        # Group tuples are built up-front (not converted from lists at the
        # end), so the result is one sort over the table itself.  The
        # two-sided case — every ``cogroup``/``join`` the engine itself
        # creates — constructs its group pair as a literal.
        table: Dict[Any, Tuple[List[Any], ...]] = {}
        get = table.get
        for side, (dep, sources) in enumerate(zip(deps, sides)):
            if not isinstance(dep, ShuffleDependency) and type(sources[0]) is ColumnarBatch:
                # Rows after all: the task's memo turns the batch into rows
                # once, or already holds the block's rows.  (A cogroup's
                # shuffles carry no declared combine, so they fetch rows.)
                sources = [runtime.iterator(dep.rdd, split)]
            if n == 2:
                for records in sources:
                    for key, value in records:
                        groups = get(key)
                        if groups is None:
                            groups = table[key] = ([], [])
                        groups[side].append(value)
            else:
                for records in sources:
                    for key, value in records:
                        groups = get(key)
                        if groups is None:
                            groups = table[key] = tuple([] for _ in range(n))
                        groups[side].append(value)
        return sorted(table.items(), key=hash_sort_key)

