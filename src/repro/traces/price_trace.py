"""Piecewise-constant spot price traces.

A trace is a sequence of ``(start_time, price)`` segments covering
``[0, horizon)``, periodic past it.  Revocation in an EC2-style market is
*deterministic* given a trace and a bid: the instance dies at the first
instant the price strictly exceeds the bid, so ``PriceTrace`` answers exact
exceedance queries rather than sampling.  Lookup, integral and exceedance are
the shared :class:`~repro.traces.breakpoints.Breakpoints` table's; the trace
adds the periodic wrap, the closed-form multi-period mean and the snap past
float round-off.  A multi-period mean may differ from a period-by-period
accumulation by up to :data:`MEAN_PRICE_WRAP_ULPS` ulps; everything else is
exact.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.traces.breakpoints import Breakpoints

#: The float contract of :meth:`PriceTrace.mean_price` over a window spanning
#: full periods: ``full_periods × period integral`` re-associates the sum a
#: period-by-period walk accumulates, so the two may differ by this many ulps.
MEAN_PRICE_WRAP_ULPS = 4


class PriceTrace:
    """An immutable piecewise-constant price series on ``[0, horizon)``.

    Args:
        times: segment start times, strictly increasing, ``times[0] == 0``.
        prices: price during ``[times[i], times[i+1])``; same length as times.
        horizon: end of the trace; queries beyond it wrap around (the trace
            is treated as periodic) so that long simulations never fall off
            the end of a finite synthetic trace.
    """

    def __init__(self, times: Sequence[float], prices: Sequence[float], horizon: float):
        times_arr = np.asarray(times, dtype=float)
        prices_arr = np.asarray(prices, dtype=float)
        if times_arr.ndim != 1 or times_arr.shape != prices_arr.shape:
            raise ValueError("times and prices must be 1-D arrays of equal length")
        if len(times_arr) == 0:
            raise ValueError("trace must have at least one segment")
        if times_arr[0] != 0.0:
            raise ValueError(f"first segment must start at 0, got {times_arr[0]}")
        if np.any(np.diff(times_arr) <= 0):
            raise ValueError("segment start times must be strictly increasing")
        if horizon <= times_arr[-1]:
            raise ValueError("horizon must exceed the last segment start")
        if not np.all(prices_arr >= 0):  # NaN too: it would poison the cached maximum
            raise ValueError("prices must be non-negative")
        #: The compiled table: lookup, integral and exceedance.  Its last
        #: ``cumint`` entry is the integral over one full period.
        self._core = Breakpoints.compile(times_arr, prices_arr, end=horizon)
        self.horizon = float(horizon)

    @property
    def times(self) -> np.ndarray:
        return self._core.xs

    @property
    def prices(self) -> np.ndarray:
        return self._core.values

    def __len__(self) -> int:
        return len(self.times)

    def _wrap(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"negative time {t}")
        return t % self.horizon

    def price_at(self, t: float) -> float:
        """Price in effect at absolute time ``t`` (periodic past horizon)."""
        return float(self._core.values_at(self._wrap(t)))

    def prices_at(self, ts: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`price_at` over an array of absolute times."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and float(ts.min()) < 0:
            raise ValueError(f"negative time {float(ts.min())}")
        return self._core.values_at(np.mod(ts, self.horizon))

    def mean_price(self, start: float, end: float) -> float:
        """Time-weighted mean price over ``[start, end]``: the head partial
        period, full periods × the period integral, and the tail partial."""
        if end < start:
            raise ValueError("end must be >= start")
        if end == start:
            return self.price_at(start)
        offset = self._wrap(start)
        remaining = self.horizon - offset
        if remaining <= 1e-9:
            offset = 0.0
            remaining = self.horizon
        span = end - start
        integral_to = self._core.integral_to
        if span <= remaining:
            # Whole window inside one period: a single exact integral (this
            # is the hot path — the long-run simulator's billing segments are
            # hours long against multi-month traces).
            lo, hi = integral_to(np.array([offset, offset + span]))
            total = float(hi - lo)
        else:
            lo, hi = integral_to(np.array([offset, self.horizon]))
            total = float(hi - lo)
            rest = span - remaining
            full_periods = int(math.floor(rest / self.horizon))
            tail = rest - full_periods * self.horizon
            total += full_periods * float(self._core.cumint[-1])
            if tail > 1e-12:
                total += float(integral_to(tail))
        return total / (end - start)

    def exceeds(self, threshold: float) -> bool:
        """True when the price ever strictly exceeds ``threshold``."""
        return self._core.exceeds(threshold)

    def next_exceedance(self, t: float, threshold: float) -> Optional[float]:
        """First absolute time ``>= t`` at which price strictly exceeds ``threshold``.

        Returns None if the (periodic) trace never exceeds the threshold.
        """
        core = self._core
        if not core.exceeds(threshold):
            return None
        tw = self._wrap(t)
        base = t - tw
        idx = int(core.index(tw))
        first = core.first_above(idx, threshold)
        # Current segment already above threshold: exceedance is immediate.
        if first == idx:
            return t
        if first >= 0:
            return self._snap_above(base + float(self.times[first]), threshold)
        # Wrap: first exceedance anywhere in the next period.
        first = core.first_above(0, threshold)
        return self._snap_above(base + self.horizon + float(self.times[first]), threshold)

    #: Linear nudges tried before the snap widens geometrically, and the cap
    #: on geometric doublings before the snap gives up loudly.
    _SNAP_LINEAR_NUDGES = 4
    _SNAP_GEOMETRIC_LIMIT = 64

    def _snap_above(self, t_abs: float, threshold: float) -> float:
        """Nudge a reconstructed absolute time forward past float round-off
        (``base + times[i]`` can land an ulp before the segment boundary)
        until the price there exceeds the threshold: linear 1e-9-relative
        steps, then geometric ones, then a loud failure — a silent miss would
        mint a revocation time at which the instance survives."""
        candidate = t_abs
        for _ in range(self._SNAP_LINEAR_NUDGES):
            if self.price_at(candidate) > threshold:
                return candidate
            candidate += 1e-9 * max(1.0, abs(candidate))
        step = 1e-9 * max(1.0, abs(candidate))
        for _ in range(self._SNAP_GEOMETRIC_LIMIT):
            if self.price_at(candidate) > threshold:
                return candidate
            candidate += step
            step *= 2.0
        if self.price_at(candidate) > threshold:
            return candidate
        raise RuntimeError(
            f"price trace snap failed: no price > {threshold} reachable from "
            f"t={t_abs} after {self._SNAP_LINEAR_NUDGES} linear and "
            f"{self._SNAP_GEOMETRIC_LIMIT} geometric nudges (reached "
            f"{candidate}); the reconstructed exceedance instant is invalid"
        )

    def next_exceedance_grid(
        self, ts: np.ndarray, threshold: float
    ) -> Optional[np.ndarray]:
        """Vectorised :meth:`next_exceedance` over an array of times (None
        when the trace never exceeds ``threshold``); lane for lane the scalar
        path's index, wrap and snap."""
        core = self._core
        if not core.exceeds(threshold):
            return None
        ts = np.asarray(ts, dtype=float)
        if ts.size == 0:
            return np.empty(0)
        if float(ts.min()) < 0:
            raise ValueError(f"negative time {float(ts.min())}")
        tw = np.mod(ts, self.horizon)
        base = ts - tw
        idx = core.index(tw)
        # First above-threshold segment at or after the current one; wrap to
        # the first anywhere in the next period when none remains.
        nxt = core.first_above(idx, threshold)
        immediate = nxt == idx
        first = core.first_above(0, threshold)
        candidates = np.where(
            nxt < 0,
            base + self.horizon + float(self.times[first]),
            base + self.times[nxt],
        )
        result = np.where(immediate, ts, candidates)
        # One vectorised check settles almost every lane; the few reconstructed
        # an ulp short walk the scalar snap's nudge schedule.
        if not immediate.all():
            late = ~immediate & (self.prices_at(result) <= threshold)
            for lane in np.flatnonzero(late):
                result[lane] = self._snap_above(float(result[lane]), threshold)
        return result

    def sample_grid(self, dt: float, start: float = 0.0, end: Optional[float] = None) -> np.ndarray:
        """Prices sampled on a uniform grid (the Fig 4 correlation analysis)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if start < 0:
            raise ValueError(f"negative time {start}")
        end_time = self.horizon if end is None else end
        grid = np.arange(start, end_time, dt)
        return self._core.values_at(np.mod(grid, self.horizon))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PriceTrace(segments={len(self)}, horizon={self.horizon:.0f}s, "
            f"min={self.prices.min():.4f}, max={self.prices.max():.4f})"
        )
