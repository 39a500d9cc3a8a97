"""Waveform tracing used by every simulation engine."""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np


class Trace:
    """A recorded waveform: monotonically increasing times and sampled values."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def append(self, time: float, value: float) -> None:
        """Record one sample."""
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        """Sample times as a numpy array."""
        return np.asarray(self._times)

    @property
    def values(self) -> np.ndarray:
        """Sample values as a numpy array."""
        return np.asarray(self._values)

    def final_value(self) -> float:
        """The last recorded value (0 when empty)."""
        return self._values[-1] if self._values else 0.0

    def resample(self, times: np.ndarray) -> np.ndarray:
        """Linearly interpolate the waveform onto ``times``."""
        if not self._times:
            return np.zeros_like(times)
        return np.interp(times, self.times, self.values)


class TraceSet:
    """A named collection of traces recorded during one simulation."""

    def __init__(self, traces: Mapping[str, Trace] | None = None) -> None:
        self._traces: dict[str, Trace] = dict(traces or {})

    def add(self, name: str) -> Trace:
        """Create (or return) the trace called ``name``."""
        if name not in self._traces:
            self._traces[name] = Trace(name)
        return self._traces[name]

    def __getitem__(self, name: str) -> Trace:
        return self._traces[name]

    def __contains__(self, name: str) -> bool:
        return name in self._traces

    def __iter__(self) -> Iterator[str]:
        return iter(self._traces)

    def names(self) -> list[str]:
        """Names of every recorded trace."""
        return list(self._traces)

    def waveform(self, name: str) -> np.ndarray:
        """Values of the trace called ``name``."""
        return self._traces[name].values
