"""Deterministic synthetic datasets for the workloads.

Each generator produces one *partition* of data as a pure function of
``(seed, partition)``, which is what lets a :class:`GeneratedRDD` stand in
for stable storage: recomputing a lost source partition regenerates exactly
the same records.

The partition generators draw NumPy arrays and return them as they are,
through :func:`~repro.engine.columnar.columns`: a partition is born
columnar, feeds lowered chains without a conversion, and becomes Python
records (``batch.to_records()``) only where something needs rows.  Each
has one definition, with no per-record twin.

The graph generator approximates the LiveJournal social graph's skew
(power-law out-degrees); the point generator produces well-separated
Gaussian clusters for KMeans; the ratings generator produces a sparse
user-item matrix with popularity skew for ALS.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.engine.columnar import Drawn, columns
from repro.simulation.rng import SeededRNG


def generate_graph_partition(
    seed: int,
    partition: int,
    edges_per_partition: int,
    num_vertices: int,
    skew: float = 1.1,
) -> Drawn:
    """Edges ``(src, dst)`` with Zipf-skewed endpoints (LiveJournal-like).

    Sources are uniform; destinations follow a bounded Zipf so a few hub
    vertices accumulate most in-links, giving PageRank its characteristic
    imbalanced shuffle.
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    rng = SeededRNG(seed, f"graph-{partition}")
    srcs = rng.integers(0, num_vertices, size=edges_per_partition)
    # Bounded Zipf via inverse-CDF on a truncated power law.
    u = rng.random(edges_per_partition)
    ranks = np.floor(num_vertices ** u) if skew <= 1.0 else None
    if ranks is None:
        # standard truncated zipf: P(k) ~ k^-skew for k in [1, V]
        cdf_max = (num_vertices ** (1.0 - skew) - 1.0) / (1.0 - skew)
        ranks = np.power(u * cdf_max * (1.0 - skew) + 1.0, 1.0 / (1.0 - skew))
    dsts = np.clip(ranks.astype(np.int64) - 1, 0, num_vertices - 1)
    # No self loops: such an edge points at the next vertex instead.
    return columns(srcs, np.where(srcs == dsts, (dsts + 1) % num_vertices, dsts))


def generate_clustered_points(
    seed: int,
    partition: int,
    points_per_partition: int,
    num_clusters: int,
    dim: int = 8,
    spread: float = 0.5,
) -> Drawn:
    """Points drawn from ``num_clusters`` well-separated Gaussians.

    A point is a ``dim``-tuple of floats, one column per coordinate; a
    single column would be a partition of bare floats, so ``dim`` is at
    least 2.
    """
    if dim < 2:
        raise ValueError("points need at least two dimensions")
    rng = SeededRNG(seed, f"points-{partition}")
    centers_rng = SeededRNG(seed, "cluster-centers")
    centers = centers_rng.uniform(-10.0, 10.0, size=(num_clusters, dim))
    assignments = rng.integers(0, num_clusters, size=points_per_partition)
    noise = rng.normal(0.0, spread, size=(points_per_partition, dim))
    points = centers[assignments] + noise
    # One contiguous array per coordinate: the kernels then stream each
    # column instead of striding across the rows.
    return columns(*np.ascontiguousarray(points.T))


def generate_ratings_partition(
    seed: int,
    partition: int,
    ratings_per_partition: int,
    num_users: int,
    num_items: int,
) -> Drawn:
    """Sparse ``(user, item, rating)`` triples with item-popularity skew."""
    rng = SeededRNG(seed, f"ratings-{partition}")
    users = rng.integers(0, num_users, size=ratings_per_partition)
    # Popularity skew: square a uniform to concentrate mass on low item ids.
    items = (rng.random(ratings_per_partition) ** 2 * num_items).astype(np.int64)
    items = np.clip(items, 0, num_items - 1)
    ratings = np.clip(rng.normal(3.5, 1.0, size=ratings_per_partition), 0.5, 5.0)
    return columns(users, items, ratings)


def initial_centroids(seed: int, num_clusters: int, dim: int = 8) -> List[Tuple[float, ...]]:
    """Deterministic starting centroids for KMeans (perturbed truth)."""
    rng = SeededRNG(seed, "initial-centroids")
    centers_rng = SeededRNG(seed, "cluster-centers")
    centers = centers_rng.uniform(-10.0, 10.0, size=(num_clusters, dim))
    jitter = rng.normal(0.0, 2.0, size=(num_clusters, dim))
    return [tuple(float(x) for x in row) for row in centers + jitter]


def initial_factors(seed: int, label: str, count: int, rank: int = 8) -> List[Tuple[int, Tuple[float, ...]]]:
    """Deterministic initial latent factors for ALS."""
    rng = SeededRNG(seed, f"factors-{label}")
    mat = rng.normal(0.0, 0.1, size=(count, rank))
    return [(i, tuple(float(x) for x in mat[i])) for i in range(count)]
