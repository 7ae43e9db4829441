"""Event-driven simulation core: a clock and a pending-event heap."""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable


class Event:
    """A scheduled callback; fires in (time, insertion sequence) order.

    The heap holds ``(time, sequence, event)`` tuples — ``sequence`` is
    unique, so ordering is decided by C tuple comparison and never
    reaches the event object itself.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(
        self, time: float, sequence: int, callback: Callable[..., None], args: tuple
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing."""
        self.cancelled = True


class Simulator:
    """A minimal discrete-event simulator."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self.now = 0.0
        self.events_processed = 0

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: object
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        time = self.now + delay
        sequence = next(self._sequence)
        event = Event(time, sequence, callback, args)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def run(self, until: float) -> None:
        """Process events in time order until the clock reaches ``until``."""
        heap = self._heap
        while heap and heap[0][0] <= until:
            if heap[0][2].cancelled:
                heapq.heappop(heap)
            else:
                self.step()
        self.now = max(self.now, until)

    def run_all(self, max_events: int = 10_000_000) -> None:
        """Process every pending event (bounded by ``max_events``)."""
        processed = 0
        while processed < max_events and self.step():
            processed += 1

    @property
    def events_pending(self) -> bool:
        """True while at least one non-cancelled event awaits processing."""
        return any(not entry[2].cancelled for entry in self._heap)

    def step(self) -> bool:
        """Process exactly one pending event; returns False when idle.

        The fan-out scheduler's deterministic backpressure uses this to
        advance the clock one ack at a time until a window credit frees.
        """
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self.now = time
            self.events_processed += 1
            event.callback(*event.args)
            return True
        return False
