"""ADC bridge: the register window through which software observes the analog part.

In the paper's smart-system architecture (Figure 1) only a subset of the
analog output signals is observed by the digital hardware and the software.
This peripheral is that observation point: whatever engine simulates the
analog component (generated C++/Python model, SystemC-DE/TDF wrapper, ELN
solver or the Verilog-AMS co-simulation bridge) publishes its output sample
here, and the firmware reads it as a signed millivolt value over the APB bus.

:class:`StreamAdcBridge` is the same register window fed from an
:class:`AnalogStream` computed ahead of the run, for an open-loop analog
side whose samples do not depend on anything the CPU does.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from typing import TYPE_CHECKING, NamedTuple

from ..errors import PlatformError
from .apb import ApbPeripheral

if TYPE_CHECKING:  # pragma: no cover - typing only (the platform imports us)
    from .platform import _CpuBlockDriver

#: Register offsets.
DATA = 0x00
STATUS = 0x04
SAMPLE_COUNT = 0x08
SCALE = 0x0C

#: STATUS bits.
STATUS_VALID = 0x1


class AdcBridge(ApbPeripheral):
    """Latches analog output samples and exposes them as millivolt registers."""

    def __init__(
        self,
        name: str = "adc0",
        millivolts_per_unit: float = 1.0,
        record: bool = False,
    ) -> None:
        self.name = name
        self.millivolts_per_unit = millivolts_per_unit
        self._raw_value = 0.0
        self._valid = False
        self.sample_count = 0
        #: Every pushed sample in arrival order when ``record`` is set (the
        #: platform sweep layer uses this to compare analog styles), else None.
        self.history: list[float] | None = [] if record else None

    def __deepcopy__(self, memo: dict) -> "AdcBridge":
        """Copy the bridge; the recorded samples are floats, so a flat copy
        of the history is a deep one (and far cheaper, sample by sample)."""
        clone = copy.copy(self)
        memo[id(self)] = clone
        if self.history is not None:
            clone.history = list(self.history)
        return clone

    # -- analog side -----------------------------------------------------------------------
    def push_sample(self, value: float) -> None:
        """Publish a new analog output sample (called by the analog wrapper)."""
        self._raw_value = float(value)
        self._valid = True
        self.sample_count += 1
        if self.history is not None:
            self.history.append(self._raw_value)

    def delivered(self) -> "tuple[int, list[float] | None]":
        """The sample count so far, and a copy of the samples when recording."""
        history = self.history
        return self.sample_count, list(history) if history is not None else None

    # -- register interface -----------------------------------------------------------------
    def read_register(self, offset: int) -> int:
        if offset == DATA:
            try:
                millivolts = int(round(self._raw_value * 1000.0 / self.millivolts_per_unit))
            except (ValueError, OverflowError):
                raise PlatformError(
                    f"{self.name}: sample {self.sample_count} is {self._raw_value!r}, "
                    "which has no millivolt reading"
                ) from None
            return millivolts & 0xFFFFFFFF
        if offset == STATUS:
            return STATUS_VALID if self._valid else 0
        if offset == SAMPLE_COUNT:
            return self.sample_count & 0xFFFFFFFF
        if offset == SCALE:
            return round(self.millivolts_per_unit * 1000.0) & 0xFFFFFFFF
        return 0

    def write_register(self, offset: int, value: int) -> None:
        if offset == SCALE:
            self.millivolts_per_unit = max(value, 1) / 1000.0


class AnalogStream(NamedTuple):
    """The samples an analog ticker pushes into the ADC over one run.

    ``values[k]`` is pushed at ``times[k]``, the ticker's quantised grid
    ``quantize(dt + k * dt)`` of a platform attached at time 0, up to and
    including the run's end.  A stream is never mutated, so platforms and
    their clones share one.
    """

    times: list[float]
    values: list[float]


class StreamAdcBridge(AdcBridge):
    """An ADC bridge answering from an :class:`AnalogStream`, not from pushes.

    Each access counts the samples the push-mode ticker would have delivered
    by the accessing event, at ``kernel.now`` of ``driver`` (the platform's
    CPU clock), and answers from the last of them.  A tick sharing that
    instant fired first only if its heap key sorts first: it was scheduled
    at the previous tick, and the event at :attr:`event_key`.  Push mode
    breaks a tie of those keys in favour of the CPU wake, which was pushed
    earlier, so the tick must sort strictly first.
    """

    def __init__(
        self,
        stream: AnalogStream,
        driver: "_CpuBlockDriver",
        name: str = "adc0",
        millivolts_per_unit: float = 1.0,
        record: bool = False,
    ) -> None:
        super().__init__(name, millivolts_per_unit)
        self.stream = stream
        self.driver = driver
        self.record = record
        #: The heap key ``scheduled`` of the event now running: ``None`` for
        #: the CPU's current wake, ``-inf`` for an injection (it fires first
        #: at its instant), ``inf`` between runs (every tick up to ``now``
        #: has fired).
        self.event_key: float | None = math.inf

    def __deepcopy__(self, memo: dict) -> "StreamAdcBridge":
        """Copy the bridge onto the copied CPU clock; the stream is shared."""
        clone = copy.copy(self)
        memo[id(self)] = clone
        clone.driver = copy.deepcopy(self.driver, memo)
        return clone

    def settle(self) -> None:
        """Bring the registers to the samples the running event sees."""
        times = self.stream.times
        now = self.driver.kernel.now
        count = bisect_left(times, now)
        if count < len(times) and times[count] == now:
            key = self.event_key
            if key is None:
                key = self.driver.scheduled()
            if (times[count - 1] if count else 0.0) < key:
                count += 1
        self.sample_count = count
        self._valid = count > 0
        self._raw_value = self.stream.values[count - 1] if count else 0.0

    def delivered(self) -> "tuple[int, list[float] | None]":
        self.settle()
        count = self.sample_count
        return count, self.stream.values[:count] if self.record else None

    def read_register(self, offset: int) -> int:
        self.settle()
        return super().read_register(offset)
