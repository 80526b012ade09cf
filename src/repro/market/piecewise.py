"""Piecewise-constant functions built from a log of deltas.

The analytic billing/market plane represents every aggregate the long-horizon
simulator cares about — cluster capacity, per-market capacity, $/hour spend
rate, cumulative committed dollars — as a :class:`PiecewiseConstantFunction`:
a right-continuous step function mutated by *deltas* at breakpoints (the idiom
of Yelp's clusterman simulator).  Mutation appends to a raw log in O(1); the
first query after a burst compiles the log into the shared
:class:`~repro.traces.breakpoints.Breakpoints` table, and every evaluation or
window integral after that is one ``searchsorted``.

A compile costs O(new log new + tail + breakpoints): it sorts the new deltas
with the breakpoints at or after the earliest of them and recomputes only that
tail — the prefix keeps its deltas, running sums and integrals — plus one copy
of each compiled array.  A ledger's new deltas land near the end of the curve,
so the tail is usually a few breakpoints.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.traces.breakpoints import Breakpoints

ArrayLike = Union[float, Sequence[float], np.ndarray]

#: Seconds per hour, for :func:`hour_transform`.
_SECONDS_PER_HOUR = 3600.0


def _chain(first: float, increments: np.ndarray) -> np.ndarray:
    """``np.cumsum`` of ``increments`` continued from the running total
    ``first``: bit for bit the tail of the cumulative sum ``first`` ended,
    because ``np.cumsum`` is a sequential left fold."""
    return np.cumsum(np.concatenate([[first], increments]))[1:]


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

    __slots__ = ("initial_value", "_log_times", "_log_deltas", "_deltas", "_sums", "_core")

    def __init__(self, initial_value: float = 0.0):
        self.initial_value = float(initial_value)
        #: Deltas logged since the last compile (empty = compiled is current).
        self._log_times: list = []
        self._log_deltas: list = []
        #: Compiled form: the coalesced delta at each breakpoint and their
        #: running sums, beside the shared breakpoint table (breakpoints,
        #: the value from each, cumulative integrals).
        self._deltas = np.empty(0)
        self._sums = np.empty(0)
        self._core = Breakpoints(np.empty(0), np.array([self.initial_value]), np.zeros(1))

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
        """Fold the logged deltas in, recomputing only the tail they touch:
        ``np.cumsum`` is a sequential left fold and equal times keep old
        before new, so the result is bit for bit the whole log compiled once.
        """
        if not self._log_times:
            return
        times = np.asarray(self._log_times, dtype=float)
        deltas = np.asarray(self._log_deltas, dtype=float)
        self._log_times.clear()
        self._log_deltas.clear()
        core = self._core
        # Breakpoints strictly before the earliest new delta are kept; the
        # rest merge with the log in one stable sort of old-then-new, so a
        # duplicate breakpoint's deltas still sum in log order.
        k = int(core.xs.searchsorted(times.min(), side="left"))
        times = np.concatenate([core.xs[k:], times])
        deltas = np.concatenate([self._deltas[k:], deltas])
        order = np.argsort(times, kind="stable")
        times = times[order]
        deltas = deltas[order]
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
        sums = _chain(self._sums[k - 1], deltas) if k else np.cumsum(deltas)
        xs = np.concatenate([core.xs[:k], times])
        steps = np.concatenate([core.steps[: k + 1], self.initial_value + sums])
        self._deltas = np.concatenate([self._deltas[:k], deltas])
        self._sums = np.concatenate([self._sums[:k], sums])
        if k >= 2:
            # cumint[i] = integral over [xs[0], xs[i]], chained from the last
            # kept entry (cumint[0] is a literal zero, so chain past it only).
            values = steps[1:]
            tail = _chain(core.cumint[k - 1], values[k - 1 : -1] * np.diff(xs[k - 1 :]))
            self._core = Breakpoints(xs, steps, np.concatenate([core.cumint[:k], tail]))
        else:
            self._core = Breakpoints.compile(xs, steps[1:], before=self.initial_value)

    # -- queries ------------------------------------------------------------
    @property
    def breakpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, values)``: sorted breakpoint instants and the value in
        effect from each one (copies; safe to mutate)."""
        self._compile()
        return self._core.xs.copy(), self._core.values.copy()

    def __len__(self) -> int:
        self._compile()
        return len(self._core.xs)

    def call(self, t: float) -> float:
        """Value in effect at time ``t``."""
        self._compile()
        return float(self._core.values_at(t))

    __call__ = call

    def call_before(self, t: float) -> float:
        """Value in effect immediately *before* ``t`` (excludes deltas at
        exactly ``t``; with a cumulative-charge curve, ``call(b) -
        call_before(a)`` totals the charges landing inside ``[a, b]``)."""
        self._compile()
        xs = self._core.xs
        if len(xs) == 0 or t <= xs[0]:
            return self.initial_value
        idx = int(np.searchsorted(xs, t, side="left")) - 1
        return float(self._core.values[idx])

    def values(self, ts: ArrayLike) -> np.ndarray:
        """Vectorised :meth:`call` over an array of query times."""
        self._compile()
        return self._core.values_at(np.asarray(ts, dtype=float))

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
        lo, hi = self._core.integral_to(np.array([start, end]))
        raw = float(hi - lo)
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
        integral_to = self._core.integral_to
        raw = integral_to(ends) - integral_to(starts)
        return raw if transform is None else transform(raw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._compile()
        return (
            f"PiecewiseConstantFunction(breakpoints={len(self._core.xs)}, "
            f"initial={self.initial_value})"
        )
