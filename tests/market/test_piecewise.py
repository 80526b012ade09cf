"""Property tests for the piecewise-constant breakpoint curves.

Every query — point evaluation, vectorised evaluation, window integrals —
is checked against a brute-force reference that walks the raw delta log, on
randomly generated delta sequences including duplicate breakpoints and
interleaved mutation/query patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market.piecewise import PiecewiseConstantFunction, hour_transform


# ---------------------------------------------------------------------------
# Brute-force references over the raw (time, delta) log
# ---------------------------------------------------------------------------
def brute_value(initial, deltas, t):
    return initial + sum(d for (x, d) in deltas if x <= t)


def brute_value_before(initial, deltas, t):
    return initial + sum(d for (x, d) in deltas if x < t)


def brute_integral(initial, deltas, a, b):
    """Exact integral over [a, b]: step through every breakpoint inside."""
    cuts = sorted({x for (x, _) in deltas if a < x < b} | {a, b})
    total = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        total += brute_value(initial, deltas, left) * (right - left)
    return total


# Coarse time grid so duplicate breakpoints actually occur.
delta_lists = st.lists(
    st.tuples(
        st.integers(0, 40).map(lambda k: k * 7.3),
        st.floats(-5.0, 5.0, allow_nan=False),
    ),
    min_size=0,
    max_size=30,
)
query_times = st.floats(-10.0, 320.0, allow_nan=False)


def build(initial, deltas):
    f = PiecewiseConstantFunction(initial_value=initial)
    for t, d in deltas:
        f.add_delta(t, d)
    return f


@given(delta_lists, st.floats(-3.0, 3.0), query_times)
@settings(max_examples=200, deadline=None)
def test_call_matches_brute_force(deltas, initial, t):
    f = build(initial, deltas)
    assert f.call(t) == pytest.approx(brute_value(initial, deltas, t), abs=1e-9)


@given(delta_lists, st.floats(-3.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_call_exactly_at_breakpoints_includes_the_delta(deltas, initial):
    f = build(initial, deltas)
    for t, _ in deltas:
        assert f.call(t) == pytest.approx(brute_value(initial, deltas, t), abs=1e-9)
        assert f.call_before(t) == pytest.approx(
            brute_value_before(initial, deltas, t), abs=1e-9
        )


@given(delta_lists, st.lists(query_times, min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_values_is_elementwise_call(deltas, ts):
    f = build(0.0, deltas)
    vec = f.values(np.asarray(ts))
    for t, v in zip(ts, vec):
        assert v == f.call(t)


@given(delta_lists, st.floats(-3.0, 3.0), query_times, st.floats(0.0, 200.0))
@settings(max_examples=200, deadline=None)
def test_integral_matches_brute_force(deltas, initial, a, width):
    f = build(initial, deltas)
    expected = brute_integral(initial, deltas, a, a + width)
    assert f.integral(a, a + width) == pytest.approx(expected, abs=1e-6)


@given(delta_lists, st.lists(st.tuples(query_times, st.floats(0.0, 150.0)),
                             min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_integrals_is_elementwise_integral(deltas, windows):
    f = build(0.0, deltas)
    starts = np.asarray([a for a, _ in windows])
    ends = np.asarray([a + w for a, w in windows])
    vec = f.integrals(starts, ends)
    for a, e, v in zip(starts, ends, vec):
        assert v == pytest.approx(f.integral(float(a), float(e)), abs=1e-9)


@given(delta_lists, delta_lists, query_times)
@settings(max_examples=100, deadline=None)
def test_mutation_after_query_recompiles(first, second, t):
    """Queries interleaved with mutation see the full delta log each time."""
    f = build(0.0, first)
    f.call(t)  # force a compile
    for x, d in second:
        f.add_delta(x, d)
    combined = list(first) + list(second)
    assert f.call(t) == pytest.approx(brute_value(0.0, combined, t), abs=1e-9)
    assert f.integral(0.0, 300.0) == pytest.approx(
        brute_integral(0.0, combined, 0.0, 300.0), abs=1e-6
    )


# Coarse grids for times *and* deltas, so duplicate breakpoints, deltas that
# cancel exactly and sums whose last bit depends on association order
# (0.1 + 0.2 + 0.3) all occur.
_grid_time = st.integers(0, 12).map(lambda k: k * 7.3)
_grid_delta = st.sampled_from([0.1, 0.2, 0.3, -0.1, -0.3, 1.5, -1.5, 1e16, -1e16, 0.0])
_pairs = st.lists(st.tuples(_grid_time, _grid_delta), min_size=1, max_size=6)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("delta"), _grid_time, _grid_delta),
        st.tuples(st.just("deltas"), _pairs),
        st.tuples(st.just("set"), _grid_time, st.sampled_from([0.0, 0.7, -2.5])),
        st.tuples(st.just("query"), st.floats(-10.0, 100.0), st.floats(0.0, 60.0)),
    ),
    min_size=1,
    max_size=40,
)


def _compiled_once(initial, log):
    """The whole log handed over in one piece and compiled by one query."""
    g = PiecewiseConstantFunction(initial_value=initial)
    g.add_deltas([t for t, _ in log], [d for _, d in log])
    return g


def _observe(f, t, width):
    xs, values = f.breakpoints
    scalars = (f.call(t), f.call_before(t), f.integral(t, t + width))
    return (
        [x.hex() for x in xs.tolist()],
        [v.hex() for v in values.tolist()],
        [v.hex() for v in scalars],
    )


@given(_operations, st.sampled_from([0.0, 2.0, -0.5]))
@settings(max_examples=300, deadline=None)
def test_incremental_compile_equals_the_whole_log_compiled_once(operations, initial):
    """Compiling only what was logged since the last query, and merging it
    in, gives bit for bit what compiling the full log gives — whatever the
    interleaving of mutations and queries."""
    f = PiecewiseConstantFunction(initial_value=initial)
    log = []
    for op in operations:
        if op[0] == "delta":
            _, t, d = op
            f.add_delta(t, d)
            if d != 0.0:  # add_delta drops zero deltas; add_deltas does not
                log.append((t, d))
        elif op[0] == "deltas":
            f.add_deltas([t for t, _ in op[1]], [d for _, d in op[1]])
            log.extend(op[1])
        elif op[0] == "set":
            _, t, value = op
            d = value - _compiled_once(initial, log).call(t)
            f.set_value(t, value)
            if d != 0.0:
                log.append((t, d))
        else:
            _, t, width = op
            assert _observe(f, t, width) == _observe(_compiled_once(initial, log), t, width)
    assert _observe(f, 50.0, 10.0) == _observe(_compiled_once(initial, log), 50.0, 10.0)


def _compiled_twice(initial, first, second, t, width):
    """Compile ``first``, log ``second``, and observe the tail-only compile."""
    f = PiecewiseConstantFunction(initial_value=initial)
    f.add_deltas([x for x, _ in first], [d for _, d in first])
    f.call(t)
    f.add_deltas([x for x, _ in second], [d for _, d in second])
    return _observe(f, t, width)


def test_tail_compile_when_new_deltas_land_at_the_front():
    """Deltas before (and at) the first breakpoints recompute the whole
    curve, and still equal the whole log compiled once."""
    first = [(x * 7.3, d) for x, d in zip(range(3, 40), [0.1, 0.2, -0.3, 1.5] * 10)]
    for second in ([(0.0, 0.3)], [(21.9, 0.1), (0.0, -1.5)], [(29.2, 0.2)]):
        for t, width in ((-5.0, 40.0), (25.0, 100.0), (300.0, 5.0)):
            want = _observe(_compiled_once(2.0, first + second), t, width)
            assert _compiled_twice(2.0, first, second, t, width) == want


def test_tail_compile_with_equal_times_across_two_compiles():
    """A breakpoint logged in both compiles sums its deltas in log order
    (0.1 + 0.2 + 0.3 is not 0.1 + (0.2 + 0.3)), and the kept prefix chains
    its running sums and integrals into the recomputed tail."""
    first = [(7.3 * k, 1e16 if k == 2 else 0.1) for k in range(1, 9)] + [(43.8, 0.2)]
    second = [(43.8, 0.3), (51.1, -1e16), (43.8, -0.1), (80.3, 0.3)]
    for t, width in ((0.0, 90.0), (43.8, 0.0), (50.0, 40.0)):
        want = _observe(_compiled_once(0.5, first + second), t, width)
        assert _compiled_twice(0.5, first, second, t, width) == want


@given(delta_lists, query_times, st.floats(-10.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_set_value_pins_the_value_at_t(deltas, t, target):
    f = build(0.0, deltas)
    f.set_value(t, target)
    assert f.call(t) == pytest.approx(target, abs=1e-9)


def test_breakpoints_are_coalesced_and_sorted():
    f = PiecewiseConstantFunction()
    f.add_delta(10.0, 1.0)
    f.add_delta(5.0, 2.0)
    f.add_delta(10.0, 3.0)
    f.add_delta(5.0, -2.0)
    xs, values = f.breakpoints
    assert xs.tolist() == [5.0, 10.0]
    assert np.all(np.diff(xs) > 0)
    assert values.tolist() == [0.0, 4.0]
    assert len(f) == 2


def test_zero_deltas_are_dropped():
    f = PiecewiseConstantFunction()
    f.add_delta(3.0, 0.0)
    assert len(f) == 0
    assert f.call(100.0) == 0.0


def test_add_deltas_shape_mismatch_rejected():
    f = PiecewiseConstantFunction()
    with pytest.raises(ValueError):
        f.add_deltas([1.0, 2.0], [1.0])


def test_reversed_integral_rejected():
    f = PiecewiseConstantFunction()
    with pytest.raises(ValueError):
        f.integral(5.0, 1.0)
    with pytest.raises(ValueError):
        f.integrals([5.0], [1.0])


def test_hour_transform_converts_rate_integral_to_dollars():
    f = PiecewiseConstantFunction()
    f.add_delta(0.0, 0.5)       # $0.50/hour from t=0
    f.add_delta(7200.0, -0.5)   # for two hours
    assert f.integral(0.0, 7200.0, transform=hour_transform) == pytest.approx(1.0)
    assert hour_transform(3600.0) == 1.0
    assert np.allclose(hour_transform(np.asarray([3600.0, 7200.0])), [1.0, 2.0])


def test_initial_value_extends_before_first_breakpoint():
    f = PiecewiseConstantFunction(initial_value=2.0)
    f.add_delta(100.0, 1.0)
    assert f.call(0.0) == 2.0
    assert f.call_before(100.0) == 2.0
    assert f.call(100.0) == 3.0
    assert f.integral(0.0, 100.0) == pytest.approx(200.0)
