"""Minimal discrete-event simulation engine.

Drives the hybrid-architecture simulator: compute groups iterate on their own
clocks and contend for per-layer parameter servers, which is inherently
event-driven (a PS serializes updates in arrival order, paper SII-B2).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.utils.checks import require_real


@dataclass(order=True)
class Event:
    time: float
    seq: int = field(compare=True)            # FIFO tie-break
    action: Callable[[], None] = field(compare=False, default=lambda: None)
    label: str = field(compare=False, default="")


class EventQueue:
    """Heap-ordered event loop with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def processed(self) -> int:
        return self._processed

    def schedule(self, delay: float, action: Callable[[], None],
                 label: str = "") -> None:
        """Schedule ``action`` at ``now + delay``. A NaN delay is refused:
        it would compare false with every time and stop ``run`` early."""
        require_real("delay", delay, "[0, inf]")
        heapq.heappush(self._heap,
                       Event(self._now + delay, next(self._counter),
                             action, label))

    def schedule_at(self, time: float, action: Callable[[], None],
                    label: str = "") -> None:
        if require_real("time", time) < self._now:
            raise ValueError(f"time must be >= now, got {time} < "
                             f"{self._now}; cannot schedule in the past")
        heapq.heappush(self._heap,
                       Event(time, next(self._counter), action, label))

    def step(self) -> Optional[Event]:
        """Process one event; returns it, or None when empty."""
        if not self._heap:
            return None
        ev = heapq.heappop(self._heap)
        self._now = ev.time
        self._processed += 1
        ev.action()
        return ev

    def run(self, until: float = float("inf"),
            max_events: int = 10_000_000) -> float:
        """Run until the queue drains, ``until`` is reached, or the event
        budget is spent. Returns the simulation clock."""
        count = 0
        while self._heap and self._heap[0].time <= until:
            if count >= max_events:
                raise RuntimeError(
                    f"event budget exhausted ({max_events}); runaway sim?")
            self.step()
            count += 1
        if self._heap and self._heap[0].time > until:
            self._now = until
        return self._now

    def empty(self) -> bool:
        return not self._heap
