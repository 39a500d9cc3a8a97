"""Stimulus sources, available as plain callables and as modules in every MoC.

The paper stimulates every model with "a square wave signal generator which is
modeled by using the same MoC of the component under test to avoid performance
artifacts due to inter-MoCs interfaces" (Section V.A).  The callables defined
here are the waveform definitions; :mod:`repro.sim.integration` wraps them as
discrete-event and TDF modules so that each experiment keeps the generator in
the same model of computation as the device under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SquareWave:
    """A square wave: ``high`` for the first ``duty`` fraction of each period."""

    amplitude: float = 1.0
    period: float = 1e-3
    duty: float = 0.5
    offset: float = 0.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty cycle must be within (0, 1)")

    def __call__(self, time: float) -> float:
        if time < self.delay:
            return self.offset
        phase = (time - self.delay) % self.period
        return self.offset + (self.amplitude if phase < self.duty * self.period else 0.0)


@dataclass(frozen=True)
class SineWave:
    """A sine wave ``offset + amplitude * sin(2*pi*frequency*t + phase)``."""

    amplitude: float = 1.0
    frequency: float = 1e3
    phase: float = 0.0
    offset: float = 0.0

    def __call__(self, time: float) -> float:
        return self.offset + self.amplitude * math.sin(
            2.0 * math.pi * self.frequency * time + self.phase
        )


@dataclass(frozen=True)
class StepSource:
    """A step from ``initial`` to ``final`` at ``step_time``."""

    initial: float = 0.0
    final: float = 1.0
    step_time: float = 0.0

    def __call__(self, time: float) -> float:
        return self.final if time >= self.step_time else self.initial


class PiecewiseLinear:
    """A piecewise-linear stimulus defined by ``(time, value)`` breakpoints."""

    def __init__(self, points: list[tuple[float, float]]) -> None:
        if not points:
            raise ValueError("at least one breakpoint is required")
        self.points = sorted(points)

    def __call__(self, time: float) -> float:
        points = self.points
        if time <= points[0][0]:
            return points[0][1]
        if time >= points[-1][0]:
            return points[-1][1]
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if t0 <= time <= t1:
                if t1 == t0:
                    return v1
                fraction = (time - t0) / (t1 - t0)
                return v0 + fraction * (v1 - v0)
        return points[-1][1]


#: The stimulus used throughout the paper's experiments: a 1 V square wave
#: with a 1 ms period.
PAPER_SQUARE_WAVE = SquareWave(amplitude=1.0, period=1e-3, duty=0.5)
