"""RDD dependencies: the edges of the lineage graph.

Narrow dependencies (each child partition reads a bounded set of parent
partitions) are pipelined within a task; shuffle dependencies are
materialisation barriers that split the lineage into stages, exactly as in
Spark's DAG scheduler.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.engine.declared import Sum
from repro.engine.partitioner import HashPartitioner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.rdd import RDD

_shuffle_ids = itertools.count()


def identity(value):
    """``reduce_by_key``'s create_combiner: the first value is the combiner."""
    return value


def group_create(value):
    """``group_by_key``'s create_combiner: a key's values, in order, as a list."""
    return [value]


def group_append(group, value):
    """``group_by_key``'s merge_value."""
    group.append(value)
    return group


def group_extend(group, more):
    """``group_by_key``'s merge_combiners."""
    group.extend(more)
    return group


#: ``group_by_key``'s aggregator.  Combined map-side it is declared (see
#: :attr:`ShuffleDependency.declared_group`): the shuffle runs these same
#: three steps, but stores each group as a tuple nobody else sees.
GROUP = (group_create, group_append, group_extend)


class Dependency:
    """Base class; holds the parent RDD."""

    def __init__(self, rdd: "RDD"):
        self.rdd = rdd


class NarrowDependency(Dependency):
    """A dependency where child partition ``p`` needs specific parent partitions."""

    def parents_of(self, partition: int) -> List[int]:
        """Parent partition indices required by child partition ``partition``."""
        raise NotImplementedError


class OneToOneDependency(NarrowDependency):
    """Child partition ``p`` reads exactly parent partition ``p`` (map/filter)."""

    def parents_of(self, partition: int) -> List[int]:
        return [partition]


class RangeDependency(NarrowDependency):
    """A contiguous slice mapping, used by union.

    Child partitions ``[out_start, out_start + length)`` map one-to-one onto
    parent partitions ``[in_start, in_start + length)``.
    """

    def __init__(self, rdd: "RDD", in_start: int, out_start: int, length: int):
        super().__init__(rdd)
        self.in_start = in_start
        self.out_start = out_start
        self.length = length

    def parents_of(self, partition: int) -> List[int]:
        if self.out_start <= partition < self.out_start + self.length:
            return [partition - self.out_start + self.in_start]
        return []


class ShuffleDependency(Dependency):
    """A wide dependency: every child partition reads all parent partitions.

    Attributes:
        partitioner: assigns each map-side record's key to a reduce bucket.
        map_side_combine: when an aggregator is present, values are combined
            on the map side before shuffle write (reduceByKey semantics).
        aggregator: (create_combiner, merge_value, merge_combiners) triple, or
            None for a raw repartition (partitionBy/groupByKey handles
            grouping reduce-side).
        declared_sum: the :class:`~repro.engine.declared.Sum` when this is
            ``reduce_by_key(Sum())`` combining map-side under a plain
            ``HashPartitioner`` — the one shape whose map-side combine can
            run from a batch (``Sum.combine``), whose map output may then
            be that batch, merged by sort on the reduce side — else None.  A
            subclass of ``Sum`` is not declared: its own ``__call__`` and
            the kernel could disagree.
        declared_group: True when this is ``group_by_key`` (the
            :data:`GROUP` aggregator) combining map-side.  The map side
            appends to a list only its task sees and stores ``(key,
            tuple(values))``; the reducer builds one fresh list per key.
            Stored groups never alias a reducer's output, and groups of
            atomic values are invisible to the cyclic collector.
    """

    def __init__(
        self,
        rdd: "RDD",
        partitioner: HashPartitioner,
        aggregator: Optional[Tuple[Callable, Callable, Callable]] = None,
        map_side_combine: bool = False,
    ):
        super().__init__(rdd)
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.map_side_combine = map_side_combine and aggregator is not None
        self.declared_sum: Optional[Sum] = None
        self.declared_group = False
        if self.map_side_combine:
            create, merge, merge_combiners = aggregator
            self.declared_group = (
                create is group_create
                and merge is group_append
                and merge_combiners is group_extend
            )
            if (
                type(partitioner) is HashPartitioner
                and create is identity
                and merge_combiners is merge
                and type(merge) is Sum
            ):
                self.declared_sum = merge
        self.shuffle_id = next(_shuffle_ids)

    @property
    def num_map_partitions(self) -> int:
        """How many map tasks feed this shuffle."""
        return self.rdd.num_partitions

    @property
    def num_reduce_partitions(self) -> int:
        return self.partitioner.num_partitions
