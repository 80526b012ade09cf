"""Workload data generators: determinism and distribution shape."""

import numpy as np
import pytest

from repro.simulation.rng import SeededRNG
from repro.workloads import datagen
from repro.workloads.datagen import (
    generate_clustered_points,
    generate_graph_partition,
    generate_ratings_partition,
    initial_centroids,
    initial_factors,
)


def test_graph_partition_deterministic():
    a = generate_graph_partition(7, 0, 500, 1000).to_records()
    b = generate_graph_partition(7, 0, 500, 1000).to_records()
    c = generate_graph_partition(7, 1, 500, 1000).to_records()
    assert a == b
    assert a != c


def test_graph_partition_shape_and_bounds():
    edges = generate_graph_partition(7, 0, 500, 1000).to_records()
    assert len(edges) == 500
    for s, d in edges:
        assert 0 <= s < 1000
        assert 0 <= d < 1000
        assert s != d  # no self loops


def test_graph_in_degree_is_skewed():
    edges = []
    for p in range(4):
        edges.extend(generate_graph_partition(7, p, 2000, 500).to_records())
    in_deg = np.zeros(500)
    for _s, d in edges:
        in_deg[d] += 1
    # Power-law-ish: the top decile has a large share of in-links.
    top = np.sort(in_deg)[::-1][:50].sum()
    assert top > 0.3 * in_deg.sum()


def test_clustered_points_deterministic_and_clustered():
    a = generate_clustered_points(3, 0, 400, num_clusters=4, dim=4).to_records()
    b = generate_clustered_points(3, 0, 400, num_clusters=4, dim=4).to_records()
    assert a == b
    assert all(len(p) == 4 for p in a)
    pts = np.array(a)
    # Clustered data: spread within clusters is much smaller than overall.
    assert pts.std() > 0.5


def test_ratings_partition():
    ratings = generate_ratings_partition(5, 0, 300, num_users=50, num_items=20).to_records()
    assert len(ratings) == 300
    for u, i, r in ratings:
        assert 0 <= u < 50
        assert 0 <= i < 20
        assert 0.5 <= r <= 5.0


def test_ratings_popularity_skew():
    ratings = generate_ratings_partition(5, 0, 5000, num_users=100, num_items=100).to_records()
    items = np.array([i for _u, i, _r in ratings])
    # Skewed toward low item ids.
    assert (items < 25).mean() > 0.4


def test_initial_centroids_and_factors_deterministic():
    assert initial_centroids(1, 5, 4) == initial_centroids(1, 5, 4)
    assert initial_factors(1, "users", 10, 4) == initial_factors(1, "users", 10, 4)
    assert initial_factors(1, "users", 10, 4) != initial_factors(1, "items", 10, 4)
    assert len(initial_centroids(1, 5, 4)) == 5
    assert all(len(f) == 4 for _i, f in initial_factors(1, "u", 3, 4))


# ----------------------------------------------------------------------
# Drawn as columns: the records are those of the per-element loops
# ----------------------------------------------------------------------
# The oracles below are the generators as they were written before they
# returned columns: the same draws, turned into records one NumPy scalar at
# a time.  ``to_records()`` must equal them exactly, Python types included.
SEEDS = (0, 7, 1234)


def _exact(records):
    return [tuple((type(x), x) for x in record) for record in records]


def _graph_loop(seed, partition, edges_per_partition, num_vertices, skew=1.1, rng_type=SeededRNG):
    rng = rng_type(seed, f"graph-{partition}")
    srcs = rng.integers(0, num_vertices, size=edges_per_partition)
    u = rng.random(edges_per_partition)
    ranks = np.floor(num_vertices ** u) if skew <= 1.0 else None
    if ranks is None:
        cdf_max = (num_vertices ** (1.0 - skew) - 1.0) / (1.0 - skew)
        ranks = np.power(u * cdf_max * (1.0 - skew) + 1.0, 1.0 / (1.0 - skew))
    dsts = np.clip(ranks.astype(np.int64) - 1, 0, num_vertices - 1)
    edges, wrapped = [], False
    for s, d in zip(srcs, dsts):
        if s == d:
            wrapped = wrapped or d == num_vertices - 1
            d = (d + 1) % num_vertices
        edges.append((int(s), int(d)))
    return edges, wrapped


def _points_loop(seed, partition, points_per_partition, num_clusters, dim=8, spread=0.5):
    rng = SeededRNG(seed, f"points-{partition}")
    centers_rng = SeededRNG(seed, "cluster-centers")
    centers = centers_rng.uniform(-10.0, 10.0, size=(num_clusters, dim))
    assignments = rng.integers(0, num_clusters, size=points_per_partition)
    noise = rng.normal(0.0, spread, size=(points_per_partition, dim))
    points = centers[assignments] + noise
    return [tuple(float(x) for x in row) for row in points]


def _ratings_loop(seed, partition, ratings_per_partition, num_users, num_items):
    rng = SeededRNG(seed, f"ratings-{partition}")
    users = rng.integers(0, num_users, size=ratings_per_partition)
    items = (rng.random(ratings_per_partition) ** 2 * num_items).astype(np.int64)
    items = np.clip(items, 0, num_items - 1)
    ratings = np.clip(rng.normal(3.5, 1.0, size=ratings_per_partition), 0.5, 5.0)
    return [(int(u), int(i), float(r)) for u, i, r in zip(users, items, ratings)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("skew", [1.1, 0.9])
def test_graph_columns_equal_the_edge_loop(seed, skew):
    for partition in range(3):
        expected, _ = _graph_loop(seed, partition, 400, 50, skew)
        got = generate_graph_partition(seed, partition, 400, 50, skew).to_records()
        assert _exact(got) == _exact(expected)


class _LastVertexRNG:
    """Draws every source and every destination as the last vertex: the
    Zipf inverse CDF reaches rank V only at u = 1, which a real draw never
    returns."""

    def __init__(self, seed, label):
        pass

    def integers(self, low, high, size):
        return np.full(size, high - 1, dtype=np.int64)

    def random(self, size):
        return np.ones(size)


def test_graph_self_loop_at_the_last_vertex_wraps_to_zero(monkeypatch):
    monkeypatch.setattr(datagen, "SeededRNG", _LastVertexRNG)
    expected, wrapped = _graph_loop(3, 0, 5, 10, skew=1.0, rng_type=_LastVertexRNG)
    assert wrapped and expected == [(9, 0)] * 5
    got = generate_graph_partition(3, 0, 5, 10, skew=1.0).to_records()
    assert _exact(got) == _exact(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_point_columns_equal_the_point_loop(seed):
    for partition in range(3):
        expected = _points_loop(seed, partition, 300, 5, dim=3)
        got = generate_clustered_points(seed, partition, 300, 5, dim=3).to_records()
        assert _exact(got) == _exact(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_rating_columns_equal_the_rating_loop(seed):
    for partition in range(3):
        expected = _ratings_loop(seed, partition, 300, 40, 25)
        got = generate_ratings_partition(seed, partition, 300, 40, 25).to_records()
        assert _exact(got) == _exact(expected)


def test_an_empty_partition_is_rows():
    assert generate_graph_partition(1, 0, 0, 10) == []
    assert generate_clustered_points(1, 0, 0, 3) == []
    assert generate_ratings_partition(1, 0, 0, 5, 5) == []


def test_a_point_has_at_least_two_coordinates():
    with pytest.raises(ValueError):
        generate_clustered_points(1, 0, 10, 3, dim=1)
