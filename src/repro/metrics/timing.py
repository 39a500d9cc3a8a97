"""Wall-clock timing helpers used by the experiment harness.

The paper measures simulation times "by using clock() differences for
SystemC/C++ descriptions and the ELDO Global CPU Time property for
Verilog-AMS" (Section V); here everything is a Python callable, so a single
monotonic-clock stopwatch covers every engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

T = TypeVar("T")


@dataclass
class Stopwatch:
    """A context manager accumulating elapsed wall-clock time."""

    elapsed: float = 0.0
    _start: float | None = field(default=None, repr=False)

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._start is not None
        self.elapsed += time.perf_counter() - self._start
        self._start = None


def measure(function: Callable[[], T]) -> tuple[T, float]:
    """Call ``function`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


@dataclass
class TimedResult:
    """A labelled measurement: what ran, how long it took, and its payload."""

    label: str
    elapsed: float
    payload: object = None
