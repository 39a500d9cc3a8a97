"""Simulation-time helpers for the discrete-event kernel.

Time is represented as a float number of seconds.  To avoid the accumulation
of floating-point error over millions of fixed-step events, helpers are
provided to quantise times onto a femtosecond grid, which is what SystemC does
with its integer time resolution.
"""

from __future__ import annotations

#: Convenience unit constants (seconds).
SEC = 1.0
MS = 1e-3
US = 1e-6
NS = 1e-9
PS = 1e-12
FS = 1e-15

#: The kernel's time resolution: all event times are quantised to this grid.
RESOLUTION = 1e-15


#: 1.5 * 2**52.  Adding and subtracting it rounds a double of magnitude
#: below 2**51 to the nearest integer, ties to even, exactly as ``round``
#: does, without building an int: the sum lies in [2**52, 2**53), where
#: doubles are spaced 1 apart.
_RINT = 6755399441055744.0
_RINT_RANGE = 2.0**51


def quantize(time: float) -> float:
    """Snap ``time`` onto the femtosecond grid used by the kernel.

    Equal to ``round(time / RESOLUTION) * RESOLUTION`` for every float.  The
    kernel calls it for every scheduled event, so times within ±2.25 s take
    the cheaper float-only rounding.
    """
    steps = time / RESOLUTION
    if -_RINT_RANGE < steps < _RINT_RANGE:
        return ((steps + _RINT) - _RINT) * RESOLUTION
    return round(steps) * RESOLUTION


def format_time(time: float) -> str:
    """Render a time with an appropriate engineering unit (for reports/traces)."""
    if time == 0.0:
        return "0 s"
    for unit, scale in (("s", 1.0), ("ms", MS), ("us", US), ("ns", NS), ("ps", PS), ("fs", FS)):
        if abs(time) >= scale:
            return f"{time / scale:.6g} {unit}"
    return f"{time:.3e} s"
