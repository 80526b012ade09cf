"""Piecewise-constant functions over sorted NumPy breakpoint arrays.

The analytic billing/market plane represents every aggregate the long-horizon
simulator cares about — cluster capacity, per-market capacity, $/hour spend
rate, cumulative committed dollars — as a :class:`PiecewiseConstantFunction`:
a right-continuous step function mutated by *deltas* at breakpoints.  The
idiom follows Yelp's clusterman simulator: events append deltas in O(1),
queries compile the delta log into sorted NumPy arrays with cached
cumulative integrals, and from then on every evaluation or window integral is
one ``searchsorted`` — O(log breakpoints) instead of a walk over instances ×
billed hours.

Mutation never pays the sort: ``add_delta`` appends to a raw log.  The first
query after a burst of mutations sorts only the deltas logged since the last
compile and merges them into the compiled arrays — O(new log new +
breakpoints), never O(history) — so both access patterns are cheap: long
stretches of acquire/revoke/terminate events and then a batch of queries, and
a ledger that is queried after every event.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[float, Sequence[float], np.ndarray]

#: Seconds per hour, for :func:`hour_transform`.
_SECONDS_PER_HOUR = 3600.0


def hour_transform(seconds: ArrayLike) -> ArrayLike:
    """Convert a measure in seconds into hours.

    ``PiecewiseConstantFunction.integral`` integrates *value × seconds*; when
    the curve's value is a rate in $/hour (the provider's ``cost_per_hour``),
    pass this transform so the integral comes back in dollars:
    ``f.integral(a, b, transform=hour_transform)``.
    """
    return seconds / _SECONDS_PER_HOUR


class PiecewiseConstantFunction:
    """A right-continuous step function built from a log of deltas.

    The function has value ``initial_value`` before the first breakpoint; a
    delta at time ``t`` takes effect *at* ``t`` (so ``call(t)`` includes it).
    Multiple deltas at the same time accumulate.
    """

    __slots__ = ("initial_value", "_log_times", "_log_deltas", "_xs", "_deltas",
                 "_values", "_cumint")

    def __init__(self, initial_value: float = 0.0):
        self.initial_value = float(initial_value)
        #: Deltas logged since the last compile (empty = compiled is current).
        self._log_times: list = []
        self._log_deltas: list = []
        #: Compiled form: sorted distinct breakpoints, the coalesced delta at
        #: each, the value in effect from each, and cumulative integrals.
        self._xs = np.empty(0)
        self._deltas = np.empty(0)
        self._values = np.empty(0)
        self._cumint = np.zeros(1)

    # -- mutation (O(1) amortised; defers sorting to the next query) --------
    def add_delta(self, t: float, delta: float) -> None:
        """Shift the function by ``delta`` for all times ``>= t``."""
        if delta != 0.0:
            self._log_times.append(float(t))
            self._log_deltas.append(float(delta))

    def add_deltas(self, times: ArrayLike, deltas: ArrayLike) -> None:
        """Batch :meth:`add_delta` (one ended instance's whole hour grid)."""
        times = np.asarray(times, dtype=float)
        deltas = np.asarray(deltas, dtype=float)
        if times.shape != deltas.shape:
            raise ValueError("times and deltas must have matching shapes")
        if times.size:
            self._log_times.extend(times.tolist())
            self._log_deltas.extend(deltas.tolist())

    def set_value(self, t: float, value: float) -> None:
        """Make the function equal ``value`` at ``t``.

        Implemented as a delta of ``value - call(t)``, so breakpoints after
        ``t`` keep their (relative) deltas and shift with the new level.
        """
        self.add_delta(t, float(value) - self.call(t))

    # -- compilation --------------------------------------------------------
    def _compile(self) -> None:
        if not self._log_times:
            return
        times = np.asarray(self._log_times, dtype=float)
        deltas = np.asarray(self._log_deltas, dtype=float)
        self._log_times.clear()
        self._log_deltas.clear()
        order = np.argsort(times, kind="stable")
        times = times[order]
        deltas = deltas[order]
        if len(self._xs):
            # Merge into the compiled arrays, old before new at equal times:
            # a duplicate breakpoint's deltas then still sum in log order,
            # so the result is bit for bit the whole log compiled at once.
            at = np.searchsorted(self._xs, times, side="right")
            times = np.insert(self._xs, at, times)
            deltas = np.insert(self._deltas, at, deltas)
        # Coalesce duplicate breakpoints so the compiled arrays stay
        # minimal (month-long sweeps emit many same-instant deltas).
        keep = np.empty(len(times), dtype=bool)
        keep[:-1] = times[1:] != times[:-1]
        keep[-1] = True
        if not keep.all():
            segment_ids = np.cumsum(np.concatenate([[0], keep[:-1]]))
            summed = np.zeros(int(segment_ids[-1]) + 1)
            np.add.at(summed, segment_ids, deltas)
            times = times[keep]
            deltas = summed
        self._xs = times
        self._deltas = deltas
        self._values = self.initial_value + np.cumsum(deltas)
        # cumint[i] = integral of the function over [xs[0], xs[i]].
        self._cumint = np.concatenate(
            [[0.0], np.cumsum(self._values[:-1] * np.diff(times))]
        )

    # -- queries ------------------------------------------------------------
    @property
    def breakpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, values)``: sorted breakpoint instants and the value in
        effect from each one (copies; safe to mutate)."""
        self._compile()
        return self._xs.copy(), self._values.copy()

    def __len__(self) -> int:
        self._compile()
        return len(self._xs)

    def call(self, t: float) -> float:
        """Value in effect at time ``t``."""
        self._compile()
        if len(self._xs) == 0 or t < self._xs[0]:
            return self.initial_value
        idx = int(np.searchsorted(self._xs, t, side="right")) - 1
        return float(self._values[idx])

    __call__ = call

    def call_before(self, t: float) -> float:
        """Value in effect immediately *before* ``t`` (excludes deltas at
        exactly ``t``; with a cumulative-charge curve, ``call(b) -
        call_before(a)`` totals the charges landing inside ``[a, b]``)."""
        self._compile()
        if len(self._xs) == 0 or t <= self._xs[0]:
            return self.initial_value
        idx = int(np.searchsorted(self._xs, t, side="left")) - 1
        return float(self._values[idx])

    def values(self, ts: ArrayLike) -> np.ndarray:
        """Vectorised :meth:`call` over an array of query times."""
        self._compile()
        ts = np.asarray(ts, dtype=float)
        if len(self._xs) == 0:
            return np.full(ts.shape, self.initial_value)
        idx = np.searchsorted(self._xs, ts, side="right") - 1
        out = np.where(idx >= 0, self._values[np.maximum(idx, 0)],
                       self.initial_value)
        return out

    def _antiderivative(self, ts: np.ndarray) -> np.ndarray:
        """Integral of the function over ``[xs[0], t]`` for each ``t``
        (extends linearly with ``initial_value`` before the first breakpoint)."""
        if len(self._xs) == 0:
            return self.initial_value * ts
        idx = np.searchsorted(self._xs, ts, side="right") - 1
        before = idx < 0
        idx_c = np.maximum(idx, 0)
        out = self._cumint[idx_c] + self._values[idx_c] * (ts - self._xs[idx_c])
        if before.any():
            out = np.where(before, self.initial_value * (ts - self._xs[0]), out)
        return out

    def integral(
        self,
        start: float,
        end: float,
        transform: Optional[Callable[[float], float]] = None,
    ) -> float:
        """Integral of the function over ``[start, end]`` in value·seconds.

        ``transform`` maps the measure (pass :func:`hour_transform` to turn a
        $/hour rate curve's integral into dollars).
        """
        if end < start:
            raise ValueError("end must be >= start")
        self._compile()
        pair = self._antiderivative(np.array([start, end]))
        raw = float(pair[1] - pair[0])
        return raw if transform is None else float(transform(raw))

    def integrals(
        self,
        starts: ArrayLike,
        ends: ArrayLike,
        transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> np.ndarray:
        """Vectorised window integrals (multi-week sweeps batched over start
        times make one call here instead of a Python loop)."""
        self._compile()
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        if np.any(ends < starts):
            raise ValueError("end must be >= start")
        raw = self._antiderivative(ends) - self._antiderivative(starts)
        return raw if transform is None else transform(raw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._compile()
        return (
            f"PiecewiseConstantFunction(breakpoints={len(self._xs)}, "
            f"initial={self.initial_value})"
        )
