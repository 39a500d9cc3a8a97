"""ADC bridge: the register window through which software observes the analog part.

In the paper's smart-system architecture (Figure 1) only a subset of the
analog output signals is observed by the digital hardware and the software.
This peripheral is that observation point: whatever engine simulates the
analog component (generated C++/Python model, SystemC-DE/TDF wrapper, ELN
solver or the Verilog-AMS co-simulation bridge) publishes its output sample
here, and the firmware reads it as a signed millivolt value over the APB bus.
"""

from __future__ import annotations

import copy

from .apb import ApbPeripheral

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
        self.read_count = 0
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

    # -- register interface -----------------------------------------------------------------
    def read_register(self, offset: int) -> int:
        if offset == DATA:
            self.read_count += 1
            millivolts = int(round(self._raw_value * 1000.0 / self.millivolts_per_unit))
            return millivolts & 0xFFFFFFFF
        if offset == STATUS:
            return STATUS_VALID if self._valid else 0
        if offset == SAMPLE_COUNT:
            return self.sample_count & 0xFFFFFFFF
        if offset == SCALE:
            return int(self.millivolts_per_unit * 1000.0) & 0xFFFFFFFF
        return 0

    def write_register(self, offset: int, value: int) -> None:
        if offset == SCALE:
            self.millivolts_per_unit = max(value, 1) / 1000.0
