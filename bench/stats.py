"""Order statistics shared by the harness and ``compare.py``."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10
PERCENTILES = (50, 75, 90, 95)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = float(values[0])
        return only, only
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def iqr_frac(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def supported_percentile(n: int, ceiling: int = PERCENTILES[-1]) -> Optional[int]:
    """Highest percentile <= ``ceiling`` with >= 10 of ``n`` samples beyond it."""
    best = None
    for q in PERCENTILES:
        if q <= ceiling and n * (100 - q) >= 100 * MIN_TAIL_SAMPLES:
            best = q
    return best


def percentile(values: Sequence[float], q: int) -> float:
    """Nearest-rank percentile for a whole ``0 < q <= 100`` (exact ceiling)."""
    ordered = sorted(values)
    rank = max(1, (q * len(ordered) + 99) // 100)
    return ordered[rank - 1]


def tail(values: Sequence[float], ceiling: int) -> Tuple[Optional[int], float]:
    """``(percentile used, value)``: the ``ceiling`` percentile where the
    sample supports it, else the highest supported one, else the median of
    whatever there is (percentile ``None``; 0.0 for an empty sample)."""
    if not values:
        return None, 0.0
    q = supported_percentile(len(values), ceiling)
    if q is None:
        return None, statistics.median(values)
    return q, percentile(values, q)
