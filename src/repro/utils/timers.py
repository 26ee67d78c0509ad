"""Wall-clock helpers used by the real (thread-backed) training paths."""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.utils.checks import require_real


class Timer:
    """Accumulating named timer: ``with timer.section("conv1"): ...``.

    Per-section totals back the measured variant of Fig 5 (time spent in each
    layer of the network on a real node).
    """

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def section(self, name: str) -> "_Section":
        return _Section(self, name)

    def add(self, name: str, seconds: float) -> None:
        require_real("seconds", seconds, "[0, inf)")
        self._totals[name] = self._totals.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + 1

    def total(self, name: str) -> float:
        return self._totals.get(name, 0.0)

    def count(self, name: str) -> int:
        return self._counts.get(name, 0)

    def names(self) -> List[str]:
        return list(self._totals)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._totals)

    def reset(self) -> None:
        self._totals.clear()
        self._counts.clear()


class _Section:
    def __init__(self, timer: Timer, name: str) -> None:
        self._timer = timer
        self._name = name
        self._start: Optional[float] = None

    def __enter__(self) -> "_Section":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self._timer.add(self._name, time.perf_counter() - self._start)


class WallClock:
    """Monotonic stopwatch with lap support."""

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self._laps: List[float] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def lap(self) -> float:
        now = self.elapsed()
        self._laps.append(now)
        return now

    @property
    def laps(self) -> List[float]:
        return list(self._laps)
