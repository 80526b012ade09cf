"""Synthetic spot-price trace generators.

EC2 spot prices are "peaky" (§5.5 of the paper): long stretches at a low
steady-state price punctuated by brief spikes far above the on-demand price.
That shape is what makes (a) bidding anywhere between ~0.5x and ~2x the
on-demand price cost-equivalent (Figure 11b) and (b) revocations effectively
Poisson with an MTTF set by the spike rate.  The generators here expose the
spike rate directly so experiments can dial in a target MTTF.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.simulation.clock import HOUR
from repro.simulation.rng import SeededRNG
from repro.traces.price_trace import PriceTrace


def constant_trace(price: float, horizon: float = 30 * 24 * HOUR) -> PriceTrace:
    """A flat trace — models on-demand or GCE fixed preemptible pricing."""
    return PriceTrace([0.0], [price], horizon)


def peaky_trace(
    rng: SeededRNG,
    on_demand_price: float,
    steady_fraction: float = 0.25,
    steady_jitter: float = 0.05,
    spike_rate_per_hour: float = 1.0 / 50.0,
    spike_height_range: tuple = (1.5, 10.0),
    spike_duration_mean: float = 0.25 * HOUR,
    horizon: float = 60 * 24 * HOUR,
    step: float = 300.0,
    churn_rate_per_hour: float = 0.0,
    churn_height_range: tuple = (0.4, 0.95),
    churn_duration_mean: float = 0.5 * HOUR,
) -> PriceTrace:
    """Generate an EC2-like peaky price trace.

    The steady-state price hovers around ``steady_fraction * on_demand_price``
    with multiplicative jitter; spikes arrive as a Poisson process at
    ``spike_rate_per_hour`` and lift the price to a uniform multiple of the
    on-demand price in ``spike_height_range`` for an exponentially distributed
    duration.  A bid at the on-demand price is revoked exactly at spikes whose
    height multiple exceeds 1, so for height ranges above 1 the MTTF at an
    on-demand bid is ~``1 / spike_rate_per_hour`` hours.

    An optional second "churn" process produces frequent *sub-bid* price
    surges: these never revoke an on-demand-bid instance but inflate what it
    is billed — the trap that makes selecting markets by instantaneous price
    (SpotFleet's lowestPrice) costly, §5.5.

    Args:
        rng: seeded stream; the same rng yields the same trace.
        on_demand_price: reference price in $/hour.
        steady_fraction: steady-state price as a fraction of on-demand.
        steady_jitter: lognormal-ish multiplicative noise on the steady price.
        spike_rate_per_hour: Poisson arrival rate of revocation spikes.
        spike_height_range: spike price as a multiple of on-demand (min, max).
        spike_duration_mean: mean spike length in seconds.
        horizon: trace length in seconds.
        step: granularity of steady-state price changes in seconds.
        churn_rate_per_hour: arrival rate of sub-bid price surges.
        churn_height_range: churn surge height as a multiple of on-demand.
        churn_duration_mean: mean churn surge length in seconds.
    """
    if not 0 < steady_fraction < 1:
        raise ValueError("steady_fraction must be in (0, 1)")
    if spike_rate_per_hour < 0:
        raise ValueError("spike_rate_per_hour must be non-negative")
    if churn_rate_per_hour < 0:
        raise ValueError("churn_rate_per_hour must be non-negative")

    n_steps = int(np.ceil(horizon / step))
    times = np.arange(n_steps) * step
    noise = np.exp(rng.normal(0.0, steady_jitter, size=n_steps))
    prices = on_demand_price * steady_fraction * noise

    _overlay_spikes(
        prices, rng, _poisson_arrivals(rng, spike_rate_per_hour / HOUR, horizon),
        on_demand_price, spike_height_range, spike_duration_mean, step,
    )
    if churn_rate_per_hour > 0:
        _overlay_spikes(
            prices, rng,
            _poisson_arrivals(rng.child("churn"), churn_rate_per_hour / HOUR, horizon),
            on_demand_price, churn_height_range, churn_duration_mean, step,
        )

    return PriceTrace(times, prices, horizon)


def correlated_peaky_traces(
    rng: SeededRNG,
    on_demand_prices: Sequence[float],
    correlation: float = 0.0,
    steady_fraction: float = 0.25,
    spike_rate_per_hour: float = 1.0 / 50.0,
    spike_height_range: tuple = (1.5, 10.0),
    spike_duration_mean: float = 0.25 * HOUR,
    horizon: float = 60 * 24 * HOUR,
    step: float = 300.0,
) -> List[PriceTrace]:
    """Generate one trace per market with a tunable co-spike probability.

    Spikes come from two Poisson sources: a *common* process whose spikes hit
    every market simultaneously (rate ``correlation * spike_rate_per_hour``)
    and an *idiosyncratic* per-market process carrying the remainder.  At
    ``correlation=0`` revocations are pairwise independent, reproducing the
    uncorrelated-markets observation in Figure 4; at ``correlation=1`` every
    market is revoked together, which defeats Flint's diversification policy.
    """
    if not 0.0 <= correlation <= 1.0:
        raise ValueError("correlation must be in [0, 1]")
    common_rate = correlation * spike_rate_per_hour
    idio_rate = (1.0 - correlation) * spike_rate_per_hour
    common_spikes = _poisson_arrivals(rng.child("common"), common_rate / HOUR, horizon)

    traces = []
    for k, od_price in enumerate(on_demand_prices):
        market_rng = rng.child(f"market-{k}")
        base = peaky_trace(
            market_rng,
            od_price,
            steady_fraction=steady_fraction,
            spike_rate_per_hour=idio_rate,
            spike_height_range=spike_height_range,
            spike_duration_mean=spike_duration_mean,
            horizon=horizon,
            step=step,
        )
        prices = base.prices.copy()
        _overlay_spikes(
            prices, market_rng, common_spikes, od_price,
            spike_height_range, spike_duration_mean, step,
        )
        traces.append(PriceTrace(base.times, prices, horizon))
    return traces


def mean_reverting_trace(
    rng: SeededRNG,
    on_demand_price: float,
    mean_fraction: float = 0.35,
    reversion_rate: float = 0.5,
    volatility: float = 0.15,
    horizon: float = 60 * 24 * HOUR,
    step: float = 300.0,
) -> PriceTrace:
    """An Ornstein-Uhlenbeck style trace for smoother, non-peaky markets.

    Used as a contrast workload for the bidding experiments: in a
    mean-reverting market the bid level matters much more than in a peaky
    one, which is why the paper's "bid the on-demand price" result is a
    property of the peaky regime.
    """
    n_steps = int(np.ceil(horizon / step))
    times = np.arange(n_steps) * step
    mu = on_demand_price * mean_fraction
    dt_hours = step / HOUR
    shocks = rng.normal(0.0, 1.0, size=n_steps)
    # The OU recurrence x_i = x_{i-1} + r*(mu - x_{i-1})*dt + c*s_i is the
    # linear filter x_i = (1 - r*dt)*x_{i-1} + (r*mu*dt + c*s_i): one lfilter
    # call (the regrouping moves the last ulp; consumers are qualitative).
    decay = 1.0 - reversion_rate * dt_hours
    drive = reversion_rate * mu * dt_hours + volatility * mu * np.sqrt(dt_hours) * shocks
    try:
        from scipy.signal import lfilter

        x, _ = lfilter([1.0], [1.0, -decay], drive, zi=np.array([decay * mu]))
    except ImportError:  # pragma: no cover - scipy is a baked-in dependency
        x = np.empty(n_steps)
        acc = mu
        for i in range(n_steps):
            acc = decay * acc + drive[i]
            x[i] = acc
    prices = np.maximum(0.01 * on_demand_price, x)
    return PriceTrace(times, prices, horizon)


def _overlay_spikes(
    prices: np.ndarray,
    rng: SeededRNG,
    spike_times: np.ndarray,
    price_scale: float,
    height_range: tuple,
    duration_mean: float,
    step: float,
) -> None:
    """Lift ``prices`` (one per ``step``) to each spike's height, in place.

    Heights and durations are drawn as batches (none without spikes), so the
    stream order depends on the spike count alone.  A spike at ``t`` covers
    ``round(duration / step)`` steps (at least one, half to even) from step
    ``t // step``, cut at the trace's end; one ``np.maximum.at`` applies every
    spike, and ``max`` is exact whatever order they land in.
    """
    n = len(spike_times)
    if n == 0:
        return
    lo, hi = height_range
    heights = price_scale * rng.uniform(lo, hi, size=n)
    durations = np.maximum(step, rng.exponential(duration_mean, size=n))
    starts = (np.asarray(spike_times) // step).astype(np.int64)
    widths = np.maximum(1, np.rint(durations / step).astype(np.int64))
    ends = np.minimum(len(prices), starts + widths)
    lengths = np.maximum(ends - starts, 0)
    first = np.cumsum(lengths) - lengths  # each spike's first cell in the flat list
    cells = np.arange(int(lengths.sum())) + np.repeat(starts - first, lengths)
    np.maximum.at(prices, cells, np.repeat(heights, lengths))


def _poisson_arrivals(rng: SeededRNG, rate_per_second: float, horizon: float) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on [0, horizon).

    Batched draws and cumulative sums, with the final chunk rewound and
    re-drawn at the exact count a one-draw-per-arrival loop consumes, so
    callers sharing this stream see the same later draws.
    """
    if rate_per_second <= 0:
        return np.empty(0)
    scale = 1.0 / rate_per_second
    gen = rng.generator
    chunks: List[np.ndarray] = []
    t = 0.0
    # ~2x the expected draw count per chunk, so one chunk usually suffices.
    chunk = max(64, int(2 * rate_per_second * horizon) + 1)
    while True:
        state = gen.bit_generator.state
        cum = t + np.cumsum(gen.exponential(scale, size=chunk))
        over = np.nonzero(cum >= horizon)[0]
        if len(over):
            stop = int(over[0])
            # The scalar loop would have consumed exactly stop + 1 draws
            # from this chunk before breaking; rewind and re-consume that
            # many to leave the stream in the identical state.
            gen.bit_generator.state = state
            gen.exponential(scale, size=stop + 1)
            chunks.append(cum[:stop])
            break
        chunks.append(cum)
        t = float(cum[-1])
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
