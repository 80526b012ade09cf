"""A from-scratch Spark-like data-parallel engine.

The engine computes *real data* — every transformation runs genuine Python
functions over genuine records — while charging *simulated time* for compute,
shuffle traffic, cache misses, and checkpoint I/O from a calibrated
:class:`~repro.engine.costs.CostModel`.  That split gives the reproduction
both correctness (lineage recomputation provably returns the same records)
and the timing phenomena the paper measures (recomputation storms, memory
pressure, checkpoint tax).

Key pieces, mirroring Spark's architecture:

* :class:`~repro.engine.rdd.RDD` — immutable, lazily evaluated, lineage-linked
  datasets with narrow and shuffle dependencies.
* :class:`~repro.engine.block_manager.BlockManager` — per-worker in-memory
  cache with LRU eviction and local-disk spill.
* :class:`~repro.engine.shuffle.ShuffleManager` — hash shuffle with map
  outputs on worker-local disk (lost on revocation).
* :class:`~repro.engine.scheduler.TaskScheduler` — event-driven execution
  over cluster slots, with lineage-based recovery of lost partitions.
* :class:`~repro.engine.context.FlintContext` — the user-facing entry point.
"""

from repro.engine.columnar import ColumnarBatch, ColumnarUnsupported
from repro.engine.context import FlintContext
from repro.engine.costs import CostModel
from repro.engine.declared import Pair, Split, Sum
from repro.engine.partitioner import HashPartitioner
from repro.engine.rdd import RDD

__all__ = [
    "ColumnarBatch",
    "ColumnarUnsupported",
    "FlintContext",
    "CostModel",
    "HashPartitioner",
    "Pair",
    "RDD",
    "Split",
    "Sum",
]
