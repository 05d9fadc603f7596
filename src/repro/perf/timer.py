"""Wall-clock timing helpers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

__all__ = ["Timer", "time_callable"]


@dataclass
class Timer:
    """A context-manager stopwatch that can be reused and accumulated.

    Examples
    --------
    >>> timer = Timer()
    >>> with timer:
    ...     _ = sum(range(1000))
    >>> timer.elapsed > 0
    True
    """

    elapsed: float = 0.0
    laps: List[float] = field(default_factory=list)
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        lap = time.perf_counter() - self._start
        self.laps.append(lap)
        self.elapsed += lap

    def reset(self) -> None:
        """Zero the accumulated time and laps."""
        self.elapsed = 0.0
        self.laps.clear()

    @property
    def mean_lap(self) -> float:
        """Mean duration of the recorded laps (0 when none)."""
        return self.elapsed / len(self.laps) if self.laps else 0.0

    @property
    def min_lap(self) -> float:
        """Fastest lap (0 when none)."""
        return min(self.laps) if self.laps else 0.0


def time_callable(func: Callable, *args, repeats: int = 1, **kwargs) -> Tuple[float, object]:
    """Call *func* ``repeats`` times; return (best wall time, last result)."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result
