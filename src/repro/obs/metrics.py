"""Counters, gauges, and histograms over the simulated run.

One :class:`MetricsRegistry` per application.  Names are dotted paths with
any per-entity label folded into the last segment (``market.spend.us-east-1a``,
``pool.queue_delay.interactive``) — zero-dependency, no label cardinality
machinery.  Like the event bus, a disabled registry costs one attribute
check per call site.

:func:`percentile` is the one nearest-rank rule: histograms and the job
server's SLO report both use it, so numbers line up across reports.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (deterministic, no interpolation).

    The rank is ``ceil(q * n)`` computed *exactly*: ``q`` is snapped to the
    nearest rational with denominator <= 1000 (so the binary float closest
    to 0.29 means 29/100, not 0.29000000000000003...), and the ceiling is
    taken in rational arithmetic.  Naive ``int(q * 1000)`` truncation picks
    a rank one too low for exactly those q values whose float repr rounds
    down — e.g. q=0.29, n=1000 gave rank 289 instead of 290.
    """
    if not values:
        return None
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    n = len(ordered)
    rank = int(math.ceil(Fraction(q).limit_denominator(1000) * n))
    rank = max(1, min(rank, n))
    return ordered[rank - 1]


class Histogram:
    """A value list with nearest-rank percentiles (deterministic, exact)."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank :func:`percentile`, ``q`` in (0, 1]; None when empty."""
        return percentile(self.values, q)

    def summary(self) -> Dict[str, Optional[float]]:
        """Count/sum/extremes plus the p50/p95/p99 ladder."""
        if not self.values:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": min(self.values),
            "max": max(self.values),
            "mean": self.total / self.count,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms for one application."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a counter (no-op while disabled)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of a gauge (no-op while disabled)."""
        if not self.enabled:
            return
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add one sample to a histogram (no-op while disabled)."""
        if not self.enabled:
            return
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self.histograms.get(name)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable view of everything recorded so far."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.summary()
                for name, hist in sorted(self.histograms.items())
            },
        }
