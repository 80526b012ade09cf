"""The compiled breakpoint table under every step function in the simulator.

A spot price trace (:class:`~repro.traces.price_trace.PriceTrace`) and the
provider's capacity and billing curves
(:class:`~repro.market.piecewise.PiecewiseConstantFunction`) compile to the
same table — sorted breakpoints, the value from each, the running integral —
and ask it the same three things: the breakpoint in effect at ``t``
(``searchsorted``, side right), the integral up to ``t``, and the first
breakpoint at or after ``i`` whose value strictly exceeds a threshold.  The
last never scans the whole table: "never" is one comparison with the cached
maximum, and the index found is the one a full scan finds.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

#: Values per block of the exceedance index.
BLOCK = 64

#: Thresholds whose above-threshold positions a table keeps (LRU); the MTTF
#: estimator asks with one bid per market.
ABOVE_CACHE_MAX = 8


class Breakpoints:
    """Sorted breakpoints ``xs``, ``steps = [before, values...]`` (the value
    ahead of ``xs[0]``, then from each breakpoint: a lookup is one
    ``searchsorted`` and one gather) and ``cumint[i]``, the integral over
    ``[xs[0], xs[i]]`` — plus one entry up to ``end`` when built with one."""

    __slots__ = ("xs", "steps", "values", "before", "cumint", "_peak", "_block_max", "_above")

    def __init__(self, xs: np.ndarray, steps: np.ndarray, cumint: np.ndarray):
        self.xs = xs
        self.steps = steps
        self.values = steps[1:]
        self.before = float(steps[0])
        self.cumint = cumint
        self._peak: Optional[float] = None
        self._block_max: Optional[np.ndarray] = None
        self._above: OrderedDict = OrderedDict()

    @classmethod
    def compile(cls, xs: np.ndarray, values: np.ndarray, end: Optional[float] = None,
                before: float = 0.0) -> "Breakpoints":
        """Build the table, integrating up to the last breakpoint or ``end``."""
        widths = np.diff(xs if end is None else np.append(xs, end))
        cumint = np.concatenate([[0.0], np.cumsum(values[: len(widths)] * widths)])
        return cls(xs, np.concatenate([[before], values]), cumint)

    # -- lookup -------------------------------------------------------------
    def index(self, ts):
        """Index of the breakpoint in effect at each of ``ts`` (-1 before)."""
        return self.xs.searchsorted(ts, side="right") - 1

    def values_at(self, ts):
        """Value in effect at each of ``ts``."""
        return self.steps[self.index(ts) + 1]

    # -- integral -----------------------------------------------------------
    def integral_to(self, ts):
        """Integral over ``[xs[0], t]`` for each of ``ts`` (ahead of
        ``xs[0]`` it runs backwards at ``before``)."""
        if not len(self.xs):
            return self.before * ts
        idx = self.index(ts)
        i = np.maximum(idx, 0)
        out = self.cumint[i] + self.values[i] * (ts - self.xs[i])
        return np.where(idx < 0, self.before * (ts - self.xs[0]), out)

    # -- exceedance ---------------------------------------------------------
    def exceeds(self, threshold: float) -> bool:
        """True when some value strictly exceeds ``threshold``."""
        if self._peak is None:
            self._peak = float(self.values.max())
        return self._peak > threshold

    def first_above(self, i, threshold: float):
        """First index ``>= i`` whose value strictly exceeds ``threshold``, or
        -1; ``i`` may be one index or an array of them.

        An array searches the above-threshold positions (cached, with a -1
        sentinel, for the last :data:`ABOVE_CACHE_MAX` thresholds), and so
        does one index whose threshold is cached.  Any other index scans its
        own block, then the block maxima, then the one block they point at.
        """
        hits = self._above.get(threshold)
        if hits is None and isinstance(i, np.ndarray):
            hits = np.append(np.flatnonzero(self.values > threshold), -1)
            self._above[threshold] = hits
            while len(self._above) > ABOVE_CACHE_MAX:
                self._above.popitem(last=False)
        if hits is not None:
            self._above.move_to_end(threshold)
            found = hits[hits[:-1].searchsorted(i, side="left")]
            return found if isinstance(i, np.ndarray) else int(found)
        values = self.values
        if not self.exceeds(threshold):
            return -1
        block = i // BLOCK
        hit = _first_true(values[i : (block + 1) * BLOCK] > threshold)
        if hit >= 0:
            return i + hit
        if self._block_max is None:
            padded = np.full(-(-len(values) // BLOCK) * BLOCK, -np.inf)
            padded[: len(values)] = values
            self._block_max = padded.reshape(-1, BLOCK).max(axis=1)
        later = _first_true(self._block_max[block + 1 :] > threshold)
        if later < 0:
            return -1
        start = (block + 1 + later) * BLOCK
        return start + _first_true(values[start : start + BLOCK] > threshold)


def _first_true(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or -1."""
    if not mask.size:
        return -1
    j = int(mask.argmax())
    return j if mask[j] else -1
