"""Priority event queue for the discrete-event simulator.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
guarantees FIFO order among events scheduled for the same instant with the
same priority, which keeps runs deterministic regardless of heap tie-breaking.
The heap holds ``(time, priority, seq, event)`` tuples: ``seq`` is unique,
so tuple comparison never reaches the event, and ordering costs no Python
call.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Tuple


@dataclass
class Event:
    """A scheduled simulator event.

    Attributes:
        time: absolute simulated time (seconds) at which the event fires.
        priority: lower fires first among events at the same time.
        seq: monotonically increasing tie-breaker assigned by the queue.
        kind: short string tag used by handlers to dispatch.
        payload: arbitrary event data (not part of the ordering).
        callback: optional callable invoked by ``EventQueue.run`` handlers.
    """

    time: float
    priority: int
    seq: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False, default=None)
    callback: Optional[Callable[["Event"], None]] = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        self.cancelled = True


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects, keyed by
    ``(time, priority, seq)``."""

    def __init__(self):
        self._heap: list[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(
        self,
        time: float,
        kind: str,
        payload: Any = None,
        priority: int = 0,
        callback: Optional[Callable[[Event], None]] = None,
    ) -> Event:
        """Insert an event and return the handle (usable for cancellation)."""
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        event = Event(
            time=float(time),
            priority=priority,
            seq=next(self._counter),
            kind=kind,
            payload=payload,
            callback=callback,
        )
        heapq.heappush(self._heap, (event.time, priority, event.seq, event))
        self._live += 1
        return event

    def peek(self) -> Optional[Event]:
        """Return the next non-cancelled event without removing it."""
        self._drop_cancelled()
        return self._heap[0][3] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the next non-cancelled event."""
        self._drop_cancelled()
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        event = heapq.heappop(self._heap)[3]
        self._live -= 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy removal)."""
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def drain_until(self, time: float) -> Iterator[Event]:
        """Yield events with ``event.time <= time`` in order."""
        while True:
            nxt = self.peek()
            if nxt is None or nxt.time > time:
                return
            yield self.pop()

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
