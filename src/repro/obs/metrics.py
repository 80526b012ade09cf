"""Counters and histograms derived from the spans of a traced run.

Nothing here records anything: :func:`span_metrics` reads the event bus
after the fact, so every fact a report shows has exactly one record — the
span that carries it.  Names are dotted paths with any per-entity label
folded into the last segment (``market.spend.us-east-1a``,
``pool.queue_delay.interactive``).  Counters kept by the engine's
always-on books (tasks, blocks, shuffle and checkpoint bytes) are read
from those books by :meth:`FlintContext.metrics_report`, not from here.

:func:`percentile` is the one nearest-rank rule: histogram summaries and
the job server's SLO report both use it, so numbers line up across reports.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.events import SpanEvent


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


def summary(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Count/sum/extremes plus the p50/p95/p99 ladder of one sample list."""
    if not values:
        return {"count": 0}
    total = sum(values)
    return {
        "count": len(values),
        "sum": total,
        "min": min(values),
        "max": max(values),
        "mean": total / len(values),
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "p99": percentile(values, 0.99),
    }


#: Query-span status -> the server counters it moves.
_QUERY_COUNTERS = {
    "complete": ("server.queries_completed",),
    "cached": ("server.queries_completed", "server.cache_hits"),
    "failed": ("server.queries_failed",),
    "rejected": ("server.queries_rejected",),
}


def span_metrics(
    events: Iterable[SpanEvent],
) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """Counters and histogram samples carried by a run's spans.

    Samples are in emission order, except ``pool.queue_delay.<pool>``, whose
    samples come from ``job`` spans and so are in job-retirement order.  A
    counter no span moved is absent.
    """
    counters: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}

    def inc(name: str, value: float = 1) -> None:
        counters[name] = counters.get(name, 0) + value

    def observe(name: str, value: float) -> None:
        samples.setdefault(name, []).append(float(value))

    for event in events:
        kind, attrs = event.kind, event.attrs
        if kind == "recompute":
            inc("scheduler.recomputed_partitions")
        elif kind == "instance":
            inc(f"market.spend.{attrs['market']}", attrs["cost"])
        elif kind == "job":
            if attrs.get("queue_delay") is not None:
                observe(f"pool.queue_delay.{event.pool}", attrs["queue_delay"])
        elif kind == "stream-batch":
            inc("streaming.batches")
            inc("streaming.records", attrs["records"])
            observe("streaming.batch_latency", attrs["latency"])
        elif kind == "query":
            for name in _QUERY_COUNTERS.get(event.status, ()):
                inc(name)
            if event.status == "rejected":
                inc(f"server.rejected.{attrs['reason']}")
            elif attrs.get("queue_delay") is not None:
                observe(f"server.queue_delay.{event.pool}", attrs["queue_delay"])
    return counters, samples
