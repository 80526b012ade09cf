"""Statistics Flint derives from price traces.

These implement the measurement side of §3.1: the MTTF of a market at a bid,
estimated from price history as Flint's node manager does from EC2's published
history; availability ECDFs (Figure 2); and pairwise price correlation
between markets (Figure 4, the basis of the diversification policy).  The
MTTF asks the trace's breakpoint table: "never exceeds" is one comparison
with its cached maximum, and a whole launch grid is one exceedance query.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.traces.price_trace import PriceTrace


def _launch_grid(start: float, end_time: float, sample_interval: float) -> np.ndarray:
    """The uniform launch grid ``start, start + interval, ...`` below
    ``end_time``, as one ``np.cumsum``: a sequential left fold, so each
    instant is bit for bit what ``t += interval`` accumulates."""
    count = max(0, int((end_time - start) // sample_interval) + 2)
    grid = np.cumsum(np.concatenate([[start], np.full(count, sample_interval)]))
    return grid[: np.searchsorted(grid, end_time, side="left")]


def time_to_failure_samples(
    trace: PriceTrace,
    bid: float,
    sample_interval: float = 3600.0,
    start: float = 0.0,
    end: Optional[float] = None,
) -> np.ndarray:
    """Time-to-revocation from each viable launch instant on a uniform grid:
    an instant at which the price is at most the bid (EC2 grants the
    instance only then), to the next strict exceedance of the bid."""
    end_time = trace.horizon if end is None else end
    grid = _launch_grid(start, end_time, sample_interval)
    if grid.size == 0:
        return np.asarray([])
    viable = grid[trace.prices_at(grid) <= bid]
    if viable.size == 0:
        return np.asarray([])
    exceedances = trace.next_exceedance_grid(viable, bid)
    if exceedances is None:
        # The (periodic) trace never exceeds the bid: no launch ever fails.
        return np.asarray([])
    return exceedances - viable


def estimate_mttf(
    trace: PriceTrace,
    bid: float,
    sample_interval: float = 3600.0,
    start: float = 0.0,
    end: Optional[float] = None,
) -> float:
    """Mean time to failure at ``bid``; ``inf`` if the trace never exceeds it."""
    if not trace.exceeds(bid):
        return float("inf")
    samples = time_to_failure_samples(trace, bid, sample_interval, start, end)
    if len(samples) == 0:
        return float("inf")
    return float(np.mean(samples))


def availability_ecdf(samples: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of time-to-failure samples (x sorted, y in [1/n, 1])."""
    arr = np.sort(np.asarray(samples, dtype=float))
    if len(arr) == 0:
        raise ValueError("need at least one sample for an ECDF")
    y = np.arange(1, len(arr) + 1) / len(arr)
    return arr, y


def pairwise_price_correlation(
    traces: List[PriceTrace],
    dt: float = 3600.0,
    end: Optional[float] = None,
) -> np.ndarray:
    """Pearson correlation matrix of prices sampled on a shared grid.

    Reproduces the Figure 4 analysis: darker (lower) off-diagonal entries
    mean less correlated markets, i.e. better diversification candidates.
    Constant traces (zero variance) get zero correlation with everything.
    """
    if not traces:
        raise ValueError("need at least one trace")
    horizon = min(t.horizon for t in traces) if end is None else end
    grid_samples = np.vstack([t.sample_grid(dt, 0.0, horizon) for t in traces])
    n = len(traces)
    corr = np.eye(n)
    stds = grid_samples.std(axis=1)
    for i in range(n):
        for j in range(i + 1, n):
            if stds[i] < 1e-12 or stds[j] < 1e-12:
                c = 0.0
            else:
                c = float(np.corrcoef(grid_samples[i], grid_samples[j])[0, 1])
            corr[i, j] = corr[j, i] = c
    return corr


def revocation_event_times(trace: PriceTrace, bid: float, end: Optional[float] = None) -> np.ndarray:
    """All distinct instants within one period at which price crosses above bid."""
    end_time = trace.horizon if end is None else min(end, trace.horizon)
    prices = trace.prices
    times = trace.times
    above = prices > bid
    crossings = np.nonzero(above & ~np.roll(above, 1))[0]
    # np.roll wraps the last element to the front; drop a spurious crossing at
    # index 0 when the trace both starts and ends above the bid.
    result = [float(times[i]) for i in crossings if times[i] < end_time]
    if above[0] and above[-1] and result and result[0] == 0.0:
        result = result[1:]
    return np.asarray(result)
