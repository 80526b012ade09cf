"""The shared breakpoint table: exceedance against a brute-force scan.

``Breakpoints.first_above`` answers "never" from the cached maximum, one
index from its block and the block maxima, and an array of indices from the
cached above-threshold positions; every path must find the index a full scan
finds.  ``PriceTrace.next_exceedance`` and ``next_exceedance_grid`` build on
it and must give the instant a scan over the periodic trace gives.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.breakpoints import ABOVE_CACHE_MAX, BLOCK, Breakpoints
from repro.traces.price_trace import PriceTrace


def scan_first_above(values, i, threshold):
    for j in range(i, len(values)):
        if values[j] > threshold:
            return j
    return -1


def scan_next_exceedance(trace, t, threshold):
    """The exceedance instant by walking every segment: the current one,
    the rest of this period, then the wrap into the next."""
    prices, times = trace.prices.tolist(), trace.times.tolist()
    if not any(p > threshold for p in prices):
        return None
    tw = t % trace.horizon
    base = t - tw
    idx = max(j for j in range(len(times)) if times[j] <= tw)
    if prices[idx] > threshold:
        return t
    for j in range(idx + 1, len(times)):
        if prices[j] > threshold:
            return trace._snap_above(base + times[j], threshold)
    first = next(j for j in range(len(times)) if prices[j] > threshold)
    return trace._snap_above(base + trace.horizon + times[first], threshold)


# Up to four blocks of segments on a coarse price grid, so thresholds equal
# to a segment price are common and hits fall in every block.
segment_prices = st.lists(
    st.sampled_from([0.05, 0.1, 0.175, 0.3, 0.5, 1.0]), min_size=1, max_size=4 * BLOCK + 7
)


@st.composite
def trace_and_threshold(draw):
    prices = draw(segment_prices)
    times = np.arange(len(prices)) * 300.0
    trace = PriceTrace(times, prices, len(prices) * 300.0 + draw(st.sampled_from([1.0, 300.0])))
    price = draw(st.sampled_from(prices))
    threshold = draw(st.sampled_from([
        price, math.nextafter(price, 0.0), math.nextafter(price, math.inf),
        max(prices), 0.0, 2.0,
    ]))
    return trace, threshold


def query_times(trace):
    """Segment boundaries, points inside segments, the horizon, and the same
    instants a few periods on."""
    inside = trace.times + 17.5
    one = np.concatenate([trace.times, inside, [trace.horizon, 0.5 * trace.horizon]])
    return np.concatenate([one, one + 3 * trace.horizon])


@given(trace_and_threshold())
@settings(max_examples=150, deadline=None)
def test_first_above_matches_a_scan(case):
    trace, threshold = case
    values = trace.prices.tolist()
    core = Breakpoints.compile(trace.times, trace.prices, end=trace.horizon)
    starts = list(range(len(values))) + [len(values)]
    for i in starts:
        assert core.first_above(i, threshold) == scan_first_above(values, i, threshold)
    grid = core.first_above(np.asarray(starts), threshold)
    assert grid.tolist() == [scan_first_above(values, i, threshold) for i in starts]
    # With the threshold's positions cached, one index takes that path too.
    for i in starts:
        assert core.first_above(i, threshold) == scan_first_above(values, i, threshold)


@given(trace_and_threshold())
@settings(max_examples=150, deadline=None)
def test_next_exceedance_scalar_and_grid_match_a_scan(case):
    trace, threshold = case
    ts = query_times(trace)
    expected = [scan_next_exceedance(trace, float(t), threshold) for t in ts]
    assert [trace.next_exceedance(float(t), threshold) for t in ts] == expected
    grid = trace.next_exceedance_grid(ts, threshold)
    if grid is None:
        assert all(e is None for e in expected)
        assert not trace.exceeds(threshold)
    else:
        assert grid.tolist() == expected
        assert trace.exceeds(threshold)


def blocky_trace(spike_at):
    """Five blocks of segments at 0.1 with one spike at index ``spike_at``."""
    prices = np.full(5 * BLOCK, 0.1)
    prices[spike_at] = 1.0
    return PriceTrace(np.arange(5 * BLOCK) * 300.0, prices, 5 * BLOCK * 300.0)


@pytest.mark.parametrize("spike_at", [3, BLOCK - 1, BLOCK, 5 * BLOCK - 1])
def test_hit_in_first_and_last_block_and_after_the_wrap(spike_at):
    trace = blocky_trace(spike_at)
    spike = spike_at * 300.0
    # Before the spike in this period, and after it: the wrap.
    assert trace.next_exceedance(0.0, 0.5) == spike
    later = spike + 300.0
    if later < trace.horizon:
        assert trace.next_exceedance(later, 0.5) == trace.horizon + spike
    grid = trace.next_exceedance_grid(np.asarray([0.0, later, spike]), 0.5)
    assert grid.tolist() == [
        trace.next_exceedance(0.0, 0.5),
        trace.next_exceedance(later, 0.5),
        spike,
    ]


def test_never_exceeds_is_the_maximum_test():
    trace = blocky_trace(7)
    assert trace.exceeds(0.99) and not trace.exceeds(1.0)
    assert trace.next_exceedance(123.0, 1.0) is None
    assert trace.next_exceedance_grid(np.asarray([0.0, 5e6]), 1.0) is None


def test_nan_prices_are_rejected():
    """A NaN price would make the cached maximum NaN and every bid "never
    revoked"; the trace refuses it like a negative price."""
    with pytest.raises(ValueError):
        PriceTrace([0.0, 1.0], [float("nan"), 5.0], 2.0)


def test_above_positions_cache_stays_bounded():
    """The per-threshold positions behind grid exceedance are a bounded LRU
    (the sweeps ask with one bid per market; the churn with many)."""
    trace = blocky_trace(9)
    core = trace._core
    ts = np.asarray([0.0, 1e5])
    for k in range(ABOVE_CACHE_MAX + 10):
        trace.next_exceedance_grid(ts, 0.2 + k * 1e-3)
    assert len(core._above) == ABOVE_CACHE_MAX
    # The oldest threshold was evicted; asking again re-inserts it, still bounded.
    assert 0.2 not in core._above
    trace.next_exceedance_grid(ts, 0.2)
    assert len(core._above) == ABOVE_CACHE_MAX and 0.2 in core._above
    # One index with an uncached threshold scans blocks and caches nothing.
    trace.next_exceedance(0.0, 0.7)
    assert 0.7 not in core._above
