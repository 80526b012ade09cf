"""KMeans clustering (§5.1): the compute-intensive workload.

Spark mllib's DenseKMeans over a 16GB random dataset: a cached points RDD,
and per iteration a narrow distance-computation map followed by one small
shuffle (reduceByKey over k keys).  Because the expensive state is a single
cached *source-derived* RDD, KMeans has the flattest lineage of the three
batch workloads and the lowest checkpointing tax (Figure 6a).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.engine.columnar import ColumnarBatch
from repro.engine.declared import Sum
from repro.engine.context import FlintContext
from repro.engine.rdd import RDD
from repro.workloads.datagen import generate_clustered_points, initial_centroids

GB = 10**9


def _closest(point: Tuple[float, ...], centroids: List[Tuple[float, ...]]) -> int:
    # Explicit accumulation instead of sum(<genexpr>): identical float
    # operation order (left-to-right from 0), a third of the interpreter
    # overhead in the benchmark's hottest data-plane loop.
    best, best_d = 0, float("inf")
    for i, c in enumerate(centroids):
        d = 0.0
        for p, q in zip(point, c):
            diff = p - q
            d += diff * diff
            if d >= best_d:
                # Early exit is exact: terms are non-negative and float
                # addition is monotone, so the full sum can only be >= the
                # partial one — this centroid can no longer win (ties keep
                # the earlier index either way).
                break
        if d < best_d:
            best, best_d = i, d
    return best


class Assign:
    """Declared row function ``point -> (closest centroid, (point, 1))``,
    one Lloyd iteration's assignment map; ``centroids`` is public, so two
    iterations' plans fingerprint apart in the result cache.

    The kernel's float-operation order matches :func:`_closest` per element:
    distances accumulate one dimension at a time (left-to-right from 0.0)
    and the running minimum uses the same strict ``<`` (ties keep the
    earlier centroid).  ``_closest``'s early exit never changes its answer
    (the full sum only grows), so computing full sums here is equivalent.
    """

    __slots__ = ("centroids",)
    stage = "map"

    def __init__(self, centroids: List[Tuple[float, ...]]):
        self.centroids = centroids

    def __call__(self, point: Tuple[float, ...]) -> Tuple[int, Tuple[Tuple[float, ...], int]]:
        return (_closest(point, self.centroids), (point, 1))

    def kernel(self, batch: ColumnarBatch) -> ColumnarBatch:
        centroids = self.centroids
        dim = len(centroids[0])
        point_schema = ("tuple", ("f8",) * dim)
        cols = batch.require(point_schema)
        n = len(batch)
        best = np.zeros(n, dtype=np.int64)
        best_d = np.full(n, np.inf)
        for i, c in enumerate(centroids):
            d = np.zeros(n)
            for j in range(dim):
                diff = cols[j] - c[j]
                d += diff * diff
            better = d < best_d
            best[better] = i
            best_d[better] = d[better]
        schema = ("tuple", ("i8", ("tuple", (point_schema, "i8"))))
        return ColumnarBatch(schema, (best, (cols, np.ones(n, dtype=np.int64))), n)


class KMeansWorkload:
    """Lloyd's algorithm over cached points.

    Args:
        data_gb: virtual dataset size (paper: 16GB).
        num_points: real point count.
        k: cluster count.
        dim: point dimensionality.
        distance_cost: compute multiplier of the assignment map — models the
            k distance evaluations per point that make KMeans CPU-bound.
    """

    def __init__(
        self,
        ctx: FlintContext,
        data_gb: float = 16.0,
        num_points: int = 24_000,
        k: int = 10,
        dim: int = 8,
        partitions: Optional[int] = None,
        iterations: int = 8,
        distance_cost: float = 6.0,
        source_cost: float = 5.0,
        seed: int = 23,
    ):
        self.ctx = ctx
        self.k = k
        self.dim = dim
        self.iterations = iterations
        self.partitions = partitions or max(8, ctx.default_parallelism)
        self.num_points = num_points
        self.distance_cost = distance_cost
        # Re-materialising points means re-fetching and re-parsing the raw
        # dataset from object storage - much slower than streaming memory.
        self.source_cost = source_cost
        self.seed = seed
        self.point_record_size = max(1, int(data_gb * GB / num_points))
        self.points: Optional[RDD] = None

    def load(self) -> RDD:
        """Build and cache the points RDD."""
        per_part = self.num_points // self.partitions
        self.points = self.ctx.generate(
            lambda p: generate_clustered_points(self.seed, p, per_part, self.k, self.dim),
            self.partitions,
            record_size=self.point_record_size,
            compute_multiplier=self.source_cost,
            name="points",
        ).persist()
        self.points.count()
        return self.points

    def run(self, iterations: Optional[int] = None) -> List[Tuple[float, ...]]:
        """Run Lloyd iterations; returns the final centroids."""
        if self.points is None:
            self.load()
        points = self.points
        centroids = initial_centroids(self.seed, self.k, self.dim)
        iters = iterations or self.iterations
        for _ in range(iters):
            stats = points.map(
                Assign(list(centroids)), compute_multiplier=self.distance_cost
            ).reduce_by_key(Sum(), min(self.partitions, self.k))
            totals = stats.collect()
            new_centroids = list(centroids)
            for idx, (vec_sum, count) in totals:
                new_centroids[idx] = tuple(x / count for x in vec_sum)
            centroids = new_centroids
        return centroids

    def cost(self, centroids: List[Tuple[float, ...]]) -> float:
        """Within-cluster sum of squared distances (quality metric)."""
        if self.points is None:
            self.load()

        def partition_cost(records):
            total = 0.0
            for p in records:
                c = centroids[_closest(p, centroids)]
                total += sum((x - y) * (x - y) for x, y in zip(p, c))
            return total

        return float(sum(self.ctx.run_job(self.points, partition_cost)))
