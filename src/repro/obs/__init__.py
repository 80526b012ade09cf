"""``repro.obs``: zero-dependency tracing for the whole stack.

One :class:`Observability` object per application holds the
:class:`~repro.obs.events.EventBus` (typed span events on the simulated
clock).  :class:`~repro.engine.context.FlintContext` creates it and
attribute-wires it into every subsystem — scheduler, shuffle manager,
checkpoint registry, cluster, workers, markets, provider, and job server —
the same first-class hook-point pattern as the fault injector, never
monkeypatching.  Nothing keeps a second count of what a span records:
``FlintContext.metrics_report()`` derives its counters and histograms from
the spans (:func:`~repro.obs.metrics.span_metrics`) and the engine's
always-on books.

Gating: tracing is **off by default**.  It turns on via the ``FLINT_TRACE``
environment variable (any value but empty/``0``/``false``) or by passing an
enabled :class:`Observability` to the context.  Every hook site guards on ``obs.enabled``, so the disabled hot
path costs one attribute check and the simulation's behaviour — event
order, charged time, results — is identical either way; emission is
observation-only by construction.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.obs.events import EVENT_KINDS, EventBus, SpanEvent

__all__ = [
    "EVENT_KINDS",
    "EventBus",
    "Observability",
    "SpanEvent",
    "tracing_enabled_by_env",
]


def tracing_enabled_by_env() -> bool:
    """True when ``FLINT_TRACE`` requests engine-wide tracing."""
    return os.environ.get("FLINT_TRACE", "") not in ("", "0", "false")


class Observability:
    """The application's event bus and simulated clock, enabled as one unit."""

    def __init__(self, enabled: Optional[bool] = None):
        if enabled is None:
            enabled = tracing_enabled_by_env()
        self.enabled = enabled
        self.bus = EventBus(enabled)
        self._now_fn: Optional[Callable[[], float]] = None

    def bind_clock(self, now_fn: Callable[[], float]) -> None:
        """Attach the simulated clock so hook sites can stamp instants."""
        self._now_fn = now_fn

    def now(self) -> float:
        """Current simulated time (0.0 before a clock is bound)."""
        return self._now_fn() if self._now_fn is not None else 0.0
