"""Property-based tests over the engine's core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import build_on_demand_context

records = st.lists(st.integers(-1000, 1000), min_size=0, max_size=60)
pairs = st.lists(
    st.tuples(st.integers(0, 9), st.integers(-100, 100)), min_size=0, max_size=60
)
n_parts = st.integers(1, 6)


@given(records, n_parts)
@settings(max_examples=30, deadline=None)
def test_map_matches_python(data, n):
    ctx = build_on_demand_context(2)
    assert ctx.parallelize(data, n).map(lambda x: x * 3 + 1).collect() == [
        x * 3 + 1 for x in data
    ]


@given(records, n_parts)
@settings(max_examples=30, deadline=None)
def test_filter_matches_python(data, n):
    ctx = build_on_demand_context(2)
    assert ctx.parallelize(data, n).filter(lambda x: x % 2 == 0).collect() == [
        x for x in data if x % 2 == 0
    ]


@given(records, n_parts)
@settings(max_examples=30, deadline=None)
def test_count_matches_len(data, n):
    ctx = build_on_demand_context(2)
    assert ctx.parallelize(data, n).count() == len(data)


@given(pairs, n_parts)
@settings(max_examples=30, deadline=None)
def test_reduce_by_key_matches_dict_fold(data, n):
    ctx = build_on_demand_context(2)
    got = dict(ctx.parallelize(data, n).reduce_by_key(lambda a, b: a + b).collect())
    expected = {}
    for k, v in data:
        expected[k] = expected.get(k, 0) + v
    assert got == expected


@given(pairs, n_parts)
@settings(max_examples=30, deadline=None)
def test_group_by_key_is_partition_of_input(data, n):
    ctx = build_on_demand_context(2)
    got = dict(ctx.parallelize(data, n).group_by_key().collect())
    flattened = sorted((k, v) for k, vs in got.items() for v in vs)
    assert flattened == sorted(data)


@given(pairs, pairs, n_parts)
@settings(max_examples=20, deadline=None)
def test_cogroup_matches_python_grouping(left, right, n):
    ctx = build_on_demand_context(2)
    a = ctx.parallelize(left, n)
    b = ctx.parallelize(right, n)
    got = dict(a.cogroup(b).collect())
    expected = {}
    for side, records in enumerate((left, right)):
        for k, v in records:
            expected.setdefault(k, ([], []))[side].append(v)
    # Each side's values in record order: both sides shuffle, in map order.
    assert got == expected


@given(pairs, n_parts, st.integers(0, 2))
@settings(max_examples=15, deadline=None)
def test_recomputation_after_revocation_is_identity(data, n, kill_count):
    """The paper's core correctness invariant: lineage recomputation after
    losing workers reproduces exactly the same dataset."""
    ctx = build_on_demand_context(3)
    agg = ctx.parallelize(data, n, record_size=1000).reduce_by_key(
        lambda a, b: a + b
    ).persist()
    before = sorted(agg.collect())
    # Keep at least one survivor: killing the whole cluster with no pending
    # replacements deadlocks by design (tested separately).
    victims = ctx.cluster.live_workers()[: min(kill_count + 1, 2)]
    ctx.cluster.force_revoke(victims)
    after = sorted(agg.collect())
    assert before == after
