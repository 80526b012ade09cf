"""Synthetic trace generators: calibration and determinism."""

import numpy as np
import pytest

from repro.simulation.clock import HOUR
from repro.simulation.rng import SeededRNG
from repro.traces.generators import (
    constant_trace,
    correlated_peaky_traces,
    mean_reverting_trace,
    peaky_trace,
)
from repro.traces.stats import estimate_mttf, pairwise_price_correlation


def test_constant_trace():
    t = constant_trace(0.5, horizon=100.0)
    assert t.price_at(0) == 0.5
    assert t.price_at(99) == 0.5
    assert t.next_exceedance(0, 0.5) is None


def test_peaky_trace_determinism():
    a = peaky_trace(SeededRNG(3, "m"), 0.175, horizon=24 * HOUR)
    b = peaky_trace(SeededRNG(3, "m"), 0.175, horizon=24 * HOUR)
    assert np.array_equal(a.prices, b.prices)


def test_peaky_trace_steady_state_level():
    t = peaky_trace(
        SeededRNG(3, "m"), 1.0, steady_fraction=0.25,
        spike_rate_per_hour=0.0, horizon=24 * HOUR,
    )
    assert t.mean_price(0, t.horizon) == pytest.approx(0.25, rel=0.1)


def test_peaky_trace_mttf_tracks_spike_rate():
    """Spike rate 1/50h should give ~50h MTTF at an on-demand bid."""
    t = peaky_trace(
        SeededRNG(3, "m"), 1.0, spike_rate_per_hour=1.0 / 50.0,
        horizon=90 * 24 * HOUR,
    )
    mttf_hours = estimate_mttf(t, 1.0, sample_interval=HOUR) / HOUR
    assert 20 < mttf_hours < 120


def test_peaky_trace_validation():
    with pytest.raises(ValueError):
        peaky_trace(SeededRNG(0, "x"), 1.0, steady_fraction=1.5)
    with pytest.raises(ValueError):
        peaky_trace(SeededRNG(0, "x"), 1.0, spike_rate_per_hour=-1.0)


def test_churn_raises_mean_price_without_revocations():
    quiet = peaky_trace(
        SeededRNG(3, "m"), 1.0, spike_rate_per_hour=0.0, horizon=10 * 24 * HOUR
    )
    churny = peaky_trace(
        SeededRNG(3, "m"), 1.0, spike_rate_per_hour=0.0,
        churn_rate_per_hour=2.0, horizon=10 * 24 * HOUR,
    )
    assert churny.mean_price(0, churny.horizon) > quiet.mean_price(0, quiet.horizon)
    # Churn stays below the on-demand bid: never revokes.
    assert churny.next_exceedance(0.0, 1.0) is None


def test_correlated_traces_count_and_independence():
    rng = SeededRNG(5, "c")
    traces = correlated_peaky_traces(
        rng, [1.0] * 4, correlation=0.0, spike_rate_per_hour=0.5,
        horizon=20 * 24 * HOUR,
    )
    assert len(traces) == 4
    corr = pairwise_price_correlation(traces, dt=HOUR)
    off_diag = corr[~np.eye(4, dtype=bool)]
    assert np.abs(off_diag).mean() < 0.3


def test_correlated_traces_common_shocks():
    rng = SeededRNG(5, "c")
    traces = correlated_peaky_traces(
        rng, [1.0] * 4, correlation=1.0, spike_rate_per_hour=0.5,
        horizon=20 * 24 * HOUR,
    )
    corr = pairwise_price_correlation(traces, dt=0.25 * HOUR)
    off_diag = corr[~np.eye(4, dtype=bool)]
    # Common spikes => markedly more correlated than the independent case.
    assert off_diag.mean() > 0.2


def test_correlation_parameter_validated():
    with pytest.raises(ValueError):
        correlated_peaky_traces(SeededRNG(0, "x"), [1.0], correlation=1.5)


def test_mean_reverting_trace_positive_and_centered():
    t = mean_reverting_trace(SeededRNG(9, "ou"), 1.0, mean_fraction=0.35, horizon=10 * 24 * HOUR)
    assert np.all(t.prices > 0)
    assert 0.1 < t.mean_price(0, t.horizon) < 0.9


# ---------------------------------------------------------------------------
# The vectorised spike overlay against the per-spike loop it replaced
# ---------------------------------------------------------------------------
def overlay_by_loop(prices, rng, spike_times, scale, height_range, duration_mean, step):
    """The reference: one slice assignment per spike, in arrival order."""
    n = len(spike_times)
    if n == 0:
        return
    lo, hi = height_range
    heights = scale * rng.uniform(lo, hi, size=n)
    durations = np.maximum(step, rng.exponential(duration_mean, size=n))
    for t_spike, height, duration in zip(spike_times, heights, durations):
        start_idx = int(t_spike // step)
        end_idx = min(len(prices), start_idx + max(1, int(round(duration / step))))
        prices[start_idx:end_idx] = np.maximum(prices[start_idx:end_idx], height)


@pytest.mark.parametrize("spike_times", [
    np.empty(0),                                   # no spikes: no draws either
    np.asarray([600.0, 650.0, 900.0, 1205.5]),     # overlapping spikes
    np.asarray([2850.0, 2999.0]),                  # spikes running past n_steps
    np.asarray([0.0, 1499.9, 1500.0, 1500.1]),     # on and around step edges
])
def test_overlay_matches_the_per_spike_loop(spike_times):
    from repro.traces.generators import _overlay_spikes

    step, n_steps = 150.0, 20
    base = np.exp(SeededRNG(1, "base").normal(0.0, 0.05, size=n_steps))
    got, want = base.copy(), base.copy()
    rng_got, rng_want = SeededRNG(4, "spikes"), SeededRNG(4, "spikes")
    args = (spike_times, 0.175, (1.5, 10.0), 900.0, step)
    _overlay_spikes(got, rng_got, *args)
    overlay_by_loop(want, rng_want, *args)
    assert got.tobytes() == want.tobytes()
    # The stream is left where the loop leaves it.
    assert rng_got.uniform(0.0, 1.0) == rng_want.uniform(0.0, 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_overlay_matches_the_loop_on_poisson_spikes(seed):
    from repro.traces.generators import _overlay_spikes, _poisson_arrivals

    step, horizon = 300.0, 3 * 24 * HOUR
    n_steps = int(np.ceil(horizon / step))
    spikes = _poisson_arrivals(SeededRNG(seed, "arrivals"), 2.0 / HOUR, horizon)
    got, want = np.full(n_steps, 0.05), np.full(n_steps, 0.05)
    args = (spikes, 0.175, (0.4, 10.0), 0.5 * HOUR, step)
    _overlay_spikes(got, SeededRNG(seed, "h"), *args)
    overlay_by_loop(want, SeededRNG(seed, "h"), *args)
    assert got.tobytes() == want.tobytes()
