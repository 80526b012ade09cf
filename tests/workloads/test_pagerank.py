"""PageRank workload: correctness and engine interplay."""

import pytest

from repro.workloads.pagerank import PageRankWorkload
from tests.conftest import build_on_demand_context


def small_pagerank(ctx, iterations=3):
    return PageRankWorkload(
        ctx, data_gb=0.1, num_edges=2000, num_vertices=400,
        partitions=4, iterations=iterations, seed=5,
    )


def test_load_caches_links():
    ctx = build_on_demand_context(2)
    pr = small_pagerank(ctx)
    links = pr.load()
    assert links.persisted
    assert ctx.cached_partition_count(links) == 4


def test_ranks_converge_to_positive_values():
    ctx = build_on_demand_context(2)
    pr = small_pagerank(ctx, iterations=4)
    ranks = pr.run()
    assert len(ranks) > 0
    assert all(r > 0 for r in ranks.values())
    # Ranks bounded: 0.15 floor, hubs accumulate more.
    assert min(ranks.values()) >= 0.15 - 1e-9
    assert max(ranks.values()) > min(ranks.values())


def test_deterministic_across_runs():
    r1 = small_pagerank(build_on_demand_context(2), 3).run()
    r2 = small_pagerank(build_on_demand_context(3), 3).run()
    assert r1 == r2  # cluster size must not affect results


def test_matches_reference_implementation():
    """Cross-check one iteration against a plain-Python PageRank."""
    ctx = build_on_demand_context(2)
    pr = small_pagerank(ctx, iterations=1)
    got = pr.run()

    from repro.workloads.datagen import generate_graph_partition

    edges = []
    for p in range(4):
        edges.extend(generate_graph_partition(5, p, 2000 // 4, 400).to_records())
    links = {}
    for s, d in edges:
        links.setdefault(s, []).append(d)
    contribs = {}
    for s, dsts in links.items():
        share = 1.0 / len(dsts)
        for d in dsts:
            contribs[d] = contribs.get(d, 0.0) + share
    expected = {d: 0.15 + 0.85 * c for d, c in contribs.items()}
    assert got.keys() == expected.keys()
    for k in got:
        assert got[k] == pytest.approx(expected[k])


def test_virtual_record_size_reflects_data_gb():
    ctx = build_on_demand_context(2)
    pr = PageRankWorkload(ctx, data_gb=2.0, num_edges=20_000, partitions=4)
    assert pr.edge_record_size == int(2.0 * 10**9 / 20_000)


def test_iterations_advance_time_linearly():
    ctx = build_on_demand_context(2)
    pr = small_pagerank(ctx, iterations=2)
    pr.load()
    t0 = ctx.now
    pr.run(iterations=1)
    dt1 = ctx.now - t0
    t1 = ctx.now
    pr.run(iterations=3)
    dt3 = ctx.now - t1
    assert dt3 > dt1
