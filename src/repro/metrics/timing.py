"""Wall-clock timing helpers used by the experiment harness.

The paper measures simulation times "by using clock() differences for
SystemC/C++ descriptions and the ELDO Global CPU Time property for
Verilog-AMS" (Section V); here everything is a Python callable, so a single
monotonic-clock measurement covers every engine.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

T = TypeVar("T")


def measure(function: Callable[[], T]) -> tuple[T, float]:
    """Call ``function`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start

