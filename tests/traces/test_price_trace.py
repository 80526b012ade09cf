"""PriceTrace: lookup, integration, exceedance queries, periodicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.price_trace import PriceTrace


def simple_trace():
    # [0,10): 1.0  [10,20): 3.0  [20,30): 0.5, horizon 30
    return PriceTrace([0.0, 10.0, 20.0], [1.0, 3.0, 0.5], 30.0)


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        PriceTrace([], [], 10.0)
    with pytest.raises(ValueError):
        PriceTrace([1.0], [2.0], 10.0)  # must start at 0
    with pytest.raises(ValueError):
        PriceTrace([0.0, 0.0], [1.0, 2.0], 10.0)  # not increasing
    with pytest.raises(ValueError):
        PriceTrace([0.0, 5.0], [1.0, 2.0], 5.0)  # horizon <= last start
    with pytest.raises(ValueError):
        PriceTrace([0.0], [-1.0], 10.0)  # negative price
    with pytest.raises(ValueError):
        PriceTrace([0.0, 1.0], [1.0], 10.0)  # length mismatch


def test_price_at_segment_boundaries():
    t = simple_trace()
    assert t.price_at(0.0) == 1.0
    assert t.price_at(9.999) == 1.0
    assert t.price_at(10.0) == 3.0
    assert t.price_at(29.9) == 0.5


def test_price_at_wraps_periodically():
    t = simple_trace()
    assert t.price_at(30.0) == t.price_at(0.0)
    assert t.price_at(45.0) == t.price_at(15.0)
    assert t.price_at(300.0 + 25.0) == 0.5


def test_price_at_negative_raises():
    with pytest.raises(ValueError):
        simple_trace().price_at(-1.0)


def test_mean_price_single_segment():
    t = simple_trace()
    assert t.mean_price(0.0, 10.0) == pytest.approx(1.0)


def test_mean_price_across_segments():
    t = simple_trace()
    # 10s at 1.0 + 10s at 3.0 => mean 2.0
    assert t.mean_price(0.0, 20.0) == pytest.approx(2.0)


def test_mean_price_full_period():
    t = simple_trace()
    expected = (10 * 1.0 + 10 * 3.0 + 10 * 0.5) / 30.0
    assert t.mean_price(0.0, 30.0) == pytest.approx(expected)


def test_mean_price_across_period_wrap():
    t = simple_trace()
    # [25, 35) = 5s at 0.5 + 5s at 1.0
    assert t.mean_price(25.0, 35.0) == pytest.approx(0.75)


def test_mean_price_point_query():
    t = simple_trace()
    assert t.mean_price(15.0, 15.0) == 3.0


def test_mean_price_rejects_reversed_range():
    with pytest.raises(ValueError):
        simple_trace().mean_price(5.0, 1.0)


def test_next_exceedance_basic():
    t = simple_trace()
    assert t.next_exceedance(0.0, 2.0) == 10.0
    assert t.next_exceedance(5.0, 2.0) == 10.0


def test_next_exceedance_immediate_when_already_above():
    t = simple_trace()
    assert t.next_exceedance(12.0, 2.0) == 12.0


def test_next_exceedance_wraps_to_next_period():
    t = simple_trace()
    # From t=25 (price 0.5), threshold 2: next spike is next period's t=40.
    assert t.next_exceedance(25.0, 2.0) == 40.0


def test_next_exceedance_none_when_never_exceeded():
    t = simple_trace()
    assert t.next_exceedance(0.0, 10.0) is None


def test_sample_grid():
    t = simple_trace()
    grid = t.sample_grid(10.0)
    assert list(grid) == [1.0, 3.0, 0.5]
    with pytest.raises(ValueError):
        t.sample_grid(0.0)


@st.composite
def trace_strategy(draw):
    n = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.floats(0.5, 50.0), min_size=n, max_size=n))
    times = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    prices = draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n))
    horizon = float(times[-1] + draw(st.floats(0.5, 20.0)))
    return PriceTrace(times, prices, horizon)


@given(trace_strategy(), st.floats(0.0, 500.0))
@settings(max_examples=60, deadline=None)
def test_price_always_within_bounds(trace, t):
    p = trace.price_at(t)
    assert trace.prices.min() <= p <= trace.prices.max()


@given(trace_strategy(), st.floats(0.0, 100.0), st.floats(0.1, 200.0))
@settings(max_examples=60, deadline=None)
def test_mean_price_within_bounds(trace, start, width):
    mean = trace.mean_price(start, start + width)
    assert trace.prices.min() - 1e-9 <= mean <= trace.prices.max() + 1e-9


@given(trace_strategy(), st.floats(0.0, 200.0), st.floats(0.0, 100.0))
@settings(max_examples=60, deadline=None)
def test_exceedance_is_consistent(trace, t, threshold):
    """If an exceedance exists, the price there strictly exceeds the
    threshold and no earlier sampled instant does."""
    at = trace.next_exceedance(t, threshold)
    if at is None:
        assert not np.any(trace.prices > threshold)
    else:
        assert at >= t
        assert trace.price_at(at) > threshold
