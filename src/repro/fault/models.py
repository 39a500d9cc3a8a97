"""The fault model library: what can break, expressed at the right layer.

Faults come in two families, mirroring the two halves of the smart system:

**Analog faults** are netlist transforms.  They mutate the conservative
:class:`~repro.network.circuit.Circuit` *before* abstraction — a resistor
opening, a parameter drifting, an amplifier stage losing gain — so the faulty
behaviour flows through the entire abstraction methodology and every code
generation backend (scalar Python, the vectorized NumPy batch path, the
SystemC-DE/TDF wrappers, the conservative ELN/co-simulation solvers)
unchanged.  There is no "fault mode" in the simulators: a faulted circuit is
just another circuit.

**Digital faults** are platform hooks.  They arm themselves on a fully
assembled :class:`~repro.vp.platform.SmartSystemPlatform` — a saboteur
interposed on the APB bus in front of the ADC bridge or the UART, a bit flip
injected into RAM or a CPU register at a scheduled instant, an instruction
word corrupted under the running firmware.  Injections into CPU-visible state
go through :meth:`~repro.vp.platform.SmartSystemPlatform.schedule_injection`,
which synchronises the block-stepped ISS around the injection time, so
per-tick and block-stepped executions of a faulted platform stay
bit-identical.

Every fault has a deterministic ``name`` (derived from its parameters, usable
as a dictionary key and a report label) and a ``kind`` (the row label of
fault-coverage matrices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FaultError
from ..network.circuit import Circuit
from ..network.components import (
    Capacitor,
    Inductor,
    Resistor,
)
from ..vp.adc_bridge import DATA as ADC_DATA
from ..vp.apb import ApbPeripheral
from ..vp.firmware import CROSSING_COUNTER_ADDRESS
from ..vp.platform import SmartSystemPlatform
from ..vp.uart import TX_DATA as UART_TX_DATA

#: Attributes a component may carry its principal value in, probed in order
#: by the generic drift fault.
_VALUE_ATTRIBUTES = (
    "resistance",
    "capacitance",
    "inductance",
    "gain",
    "transconductance",
    "dc_value",
)


class FaultModel:
    """Base class of every injectable fault."""

    #: Coverage-matrix row label (one per fault class).
    kind: str = "fault"
    #: ``"analog"`` or ``"digital"``.
    layer: str = "analog"

    @property
    def name(self) -> str:
        """Deterministic identifier derived from the fault's parameters."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        return self.name


class AnalogFault(FaultModel):
    """A netlist transform: mutates a circuit before abstraction."""

    layer = "analog"

    def apply(self, circuit: Circuit) -> None:
        """Mutate ``circuit`` in place to its faulted form."""
        raise NotImplementedError


class DigitalFault(FaultModel):
    """A platform hook: arms itself on an assembled virtual platform."""

    layer = "digital"

    def arm(
        self,
        platform: SmartSystemPlatform,
        at_time: float,
        rng: np.random.Generator,
    ) -> None:
        """Install the fault on ``platform``, activating at ``at_time``.

        ``rng`` is the fault run's deterministic generator (derived through
        :mod:`repro.sweep.seeds`); faults with randomized targets draw from
        it, so serial and multiprocess campaign runs inject identically.

        The contract campaigns rely on: nothing observable changes before
        ``at_time``, and scheduled injections go through
        :meth:`~repro.vp.platform.SmartSystemPlatform.schedule_injection`.
        A campaign may therefore arm the fault on a clone of the golden run
        taken just before ``at_time`` instead of on a fresh platform.
        """
        raise NotImplementedError


# ----------------------------------------------------------------------------------
# Analog faults
# ----------------------------------------------------------------------------------
def _value_attribute(component) -> str:
    for attribute in _VALUE_ATTRIBUTES:
        if hasattr(component, attribute):
            return attribute
    raise FaultError(
        f"component {type(component).__name__} has no recognised value "
        f"attribute to perturb (looked for {_VALUE_ATTRIBUTES})"
    )


@dataclass(frozen=True)
class ParameterDriftFault(AnalogFault):
    """A component's principal value drifts by a multiplicative ``factor``.

    Models ageing/temperature drift: the branch keeps its topology, only the
    coefficient changes (resistance, capacitance, inductance, gain,
    transconductance or DC value — whichever the component carries).
    """

    branch: str
    factor: float

    kind = "drift"

    def __post_init__(self) -> None:
        if self.factor <= 0.0:
            raise FaultError("a drift factor must be positive")

    @property
    def name(self) -> str:
        # repr, not %g: distinct near-unity factors must not collapse to one
        # name (names are campaign-unique keys and report labels).
        return f"drift:{self.branch}x{self.factor!r}"

    def apply(self, circuit: Circuit) -> None:
        component = circuit.branch(self.branch).component
        attribute = _value_attribute(component)
        setattr(component, attribute, getattr(component, attribute) * self.factor)


def _set_resistance(circuit: Circuit, branch: str, resistance: float) -> None:
    component = circuit.branch(branch).component
    if not isinstance(component, Resistor):
        raise FaultError(
            f"branch {branch!r} is a {type(component).__name__}, not a resistor"
        )
    component.resistance = resistance


@dataclass(frozen=True)
class ResistorOpenFault(AnalogFault):
    """A resistor goes open-circuit (its resistance becomes ``resistance``)."""

    branch: str
    resistance: float = 1e9

    kind = "open"

    @property
    def name(self) -> str:
        return f"open:{self.branch}"

    def apply(self, circuit: Circuit) -> None:
        _set_resistance(circuit, self.branch, self.resistance)


@dataclass(frozen=True)
class ResistorShortFault(AnalogFault):
    """A resistor shorts out (its resistance collapses to ``resistance``)."""

    branch: str
    resistance: float = 1e-2

    kind = "short"

    @property
    def name(self) -> str:
        return f"short:{self.branch}"

    def apply(self, circuit: Circuit) -> None:
        _set_resistance(circuit, self.branch, self.resistance)


@dataclass(frozen=True)
class GainDegradationFault(AnalogFault):
    """A controlled source loses gain (VCVS ``gain`` / VCCS ``transconductance``)."""

    branch: str
    factor: float = 0.5

    kind = "gain-degradation"

    def __post_init__(self) -> None:
        if not 0.0 <= self.factor:
            raise FaultError("the gain degradation factor must be non-negative")

    @property
    def name(self) -> str:
        return f"gain:{self.branch}x{self.factor!r}"

    def apply(self, circuit: Circuit) -> None:
        component = circuit.branch(self.branch).component
        for attribute in ("gain", "transconductance"):
            if hasattr(component, attribute):
                setattr(
                    component, attribute, getattr(component, attribute) * self.factor
                )
                return
        raise FaultError(
            f"branch {self.branch!r} is a {type(component).__name__}, which has "
            f"no gain to degrade"
        )


# ----------------------------------------------------------------------------------
# Bus saboteurs (the register-level digital faults)
# ----------------------------------------------------------------------------------
class BusSaboteur(ApbPeripheral):
    """Delegating APB proxy that corrupts selected transactions when active.

    Wraps the real peripheral in place on the bus
    (:meth:`~repro.vp.apb.ApbBus.interpose`); every register access is
    forwarded, and subclasses override :meth:`corrupt_read` /
    :meth:`corrupt_write` to mutate values once ``kernel.now`` has reached the
    activation time.  Peripheral-window accesses are always executed on their
    exact clock cycle by the block-stepped ISS, so time-gating on
    ``kernel.now`` is exact for any ``cpu_block_cycles``.
    """

    def __init__(self, inner: ApbPeripheral, kernel, at_time: float) -> None:
        self.inner = inner
        self.kernel = kernel
        self.at_time = at_time

    def active(self) -> bool:
        return self.kernel.now >= self.at_time - 1e-18

    def read_register(self, offset: int) -> int:
        value = self.inner.read_register(offset)
        if self.active():
            value = self.corrupt_read(offset, value) & 0xFFFFFFFF
        return value

    def write_register(self, offset: int, value: int) -> None:
        if self.active():
            value = self.corrupt_write(offset, value) & 0xFFFFFFFF
        self.inner.write_register(offset, value)

    def corrupt_read(self, offset: int, value: int) -> int:
        return value

    def corrupt_write(self, offset: int, value: int) -> int:
        return value


class _AdcStuckSaboteur(BusSaboteur):
    def __init__(self, inner, kernel, at_time, mask: int, stuck_at: int) -> None:
        super().__init__(inner, kernel, at_time)
        self.mask = mask
        self.stuck_at = stuck_at

    def corrupt_read(self, offset: int, value: int) -> int:
        if offset == ADC_DATA:
            return value | self.mask if self.stuck_at else value & ~self.mask
        return value


class _AdcFlipSaboteur(BusSaboteur):
    def __init__(self, inner, kernel, at_time, mask: int) -> None:
        super().__init__(inner, kernel, at_time)
        self.mask = mask
        self.fired = False

    def corrupt_read(self, offset: int, value: int) -> int:
        if offset == ADC_DATA and not self.fired:
            self.fired = True
            return value ^ self.mask
        return value


class _UartSaboteur(BusSaboteur):
    def __init__(self, inner, kernel, at_time, mask: int) -> None:
        super().__init__(inner, kernel, at_time)
        self.mask = mask

    def corrupt_write(self, offset: int, value: int) -> int:
        if offset == UART_TX_DATA:
            return value ^ self.mask
        return value


# ----------------------------------------------------------------------------------
# Digital faults
# ----------------------------------------------------------------------------------
def _check_bit(bit: int, limit: int = 32) -> None:
    if not 0 <= bit < limit:
        raise FaultError(f"bit index {bit} outside 0..{limit - 1}")


@dataclass(frozen=True)
class AdcStuckBitFault(DigitalFault):
    """One bit of the ADC data register sticks at ``stuck_at`` (0 or 1).

    The classic converter defect: the analog waveform is intact, but every
    sample the firmware reads after activation has the bit forced.
    """

    bit: int
    stuck_at: int = 1

    kind = "adc-stuck"

    def __post_init__(self) -> None:
        _check_bit(self.bit)
        if self.stuck_at not in (0, 1):
            raise FaultError("stuck_at must be 0 or 1")

    @property
    def name(self) -> str:
        return f"adc-stuck{self.stuck_at}:bit{self.bit}"

    def arm(self, platform, at_time, rng) -> None:
        platform.bus.interpose(
            "adc0",
            lambda adc: _AdcStuckSaboteur(
                adc, platform.kernel, at_time, 1 << self.bit, self.stuck_at
            ),
        )


@dataclass(frozen=True)
class AdcBitFlipFault(DigitalFault):
    """A single-event upset in the ADC: exactly one read after activation
    returns the sample with ``bit`` flipped."""

    bit: int

    kind = "adc-flip"

    def __post_init__(self) -> None:
        _check_bit(self.bit)

    @property
    def name(self) -> str:
        return f"adc-flip:bit{self.bit}"

    def arm(self, platform, at_time, rng) -> None:
        platform.bus.interpose(
            "adc0",
            lambda adc: _AdcFlipSaboteur(adc, platform.kernel, at_time, 1 << self.bit),
        )


@dataclass(frozen=True)
class UartCorruptionFault(DigitalFault):
    """Every byte the firmware transmits after activation is XORed with ``mask``
    (a noisy serial link / marginal line driver)."""

    mask: int = 0x20

    kind = "uart-corruption"

    def __post_init__(self) -> None:
        if not 0 < self.mask <= 0xFF:
            raise FaultError("the UART corruption mask must be a non-zero byte")

    @property
    def name(self) -> str:
        return f"uart-xor:{self.mask:#04x}"

    def arm(self, platform, at_time, rng) -> None:
        platform.bus.interpose(
            "uart0",
            lambda uart: _UartSaboteur(uart, platform.kernel, at_time, self.mask),
        )


@dataclass(frozen=True)
class MemoryBitFlipFault(DigitalFault):
    """A single-event upset in RAM: one bit of one byte flips at the
    activation time.

    ``address=None`` picks a uniformly random RAM byte from the campaign's
    per-fault generator, which is how radiation-style campaigns sample the
    address space deterministically.  The flip goes through
    :meth:`~repro.vp.memory.Memory.flip_bit` with watcher notification, so a
    hit inside the code region re-decodes (and may legally crash the CPU).
    """

    address: "int | None" = CROSSING_COUNTER_ADDRESS
    bit: int = 0

    kind = "memory-flip"

    def __post_init__(self) -> None:
        _check_bit(self.bit, 8)

    @property
    def name(self) -> str:
        where = "rand" if self.address is None else f"{self.address:#x}"
        return f"mem-flip:{where}.{self.bit}"

    def arm(self, platform, at_time, rng) -> None:
        memory = platform.memory
        address = self.address
        if address is None:
            address = memory.base + int(rng.integers(0, memory.size))
        platform.schedule_injection(
            at_time, lambda: memory.flip_bit(address, self.bit)
        )


@dataclass(frozen=True)
class RegisterTransientFault(DigitalFault):
    """A transient bit flip in a CPU general-purpose register at the
    activation time (``$zero`` is not a valid target — it is hard-wired)."""

    register: int
    bit: int = 0

    kind = "register-flip"

    def __post_init__(self) -> None:
        if not 1 <= self.register <= 31:
            raise FaultError("the register index must be in 1..31")
        _check_bit(self.bit)

    @property
    def name(self) -> str:
        return f"reg-flip:r{self.register}.{self.bit}"

    def arm(self, platform, at_time, rng) -> None:
        cpu = platform.cpu

        def inject() -> None:
            cpu.write_register(
                self.register, cpu.read_register(self.register) ^ (1 << self.bit)
            )

        platform.schedule_injection(at_time, inject)


@dataclass(frozen=True)
class InstructionCorruptionFault(DigitalFault):
    """An instruction word in RAM is overwritten at the activation time.

    With the default ``value`` (an unimplemented opcode) this is the
    crash-fault archetype: the next fetch of the word raises a
    :class:`~repro.errors.CpuFault`, which the campaign records as a
    ``crash`` verdict.  The poke notifies the memory write watchers, so the
    predecoded ISS re-decodes the word instead of executing a stale copy.
    """

    address: int
    value: int = 0xFFFF_FFFF

    kind = "code-corruption"

    def __post_init__(self) -> None:
        if self.address % 4 != 0:
            raise FaultError("instruction corruption needs a word-aligned address")

    @property
    def name(self) -> str:
        return f"code-corrupt:{self.address:#x}"

    def arm(self, platform, at_time, rng) -> None:
        memory = platform.memory
        image = (self.value & 0xFFFF_FFFF).to_bytes(4, "little")
        platform.schedule_injection(at_time, lambda: memory.poke(self.address, image))


# ----------------------------------------------------------------------------------
# Fault universes: sensible default fault sets for a campaign
# ----------------------------------------------------------------------------------
def analog_fault_universe(
    circuit: Circuit,
    drift_factor: float = 1.2,
    gain_factor: float = 0.5,
) -> list[AnalogFault]:
    """One plausible fault set for every branch of ``circuit``.

    Resistors get open/short/drift, energy-storage elements get drift,
    controlled sources get gain degradation; source branches are left alone
    (a faulty stimulus is a scenario, not a component fault).
    """
    faults: list[AnalogFault] = []
    for branch in circuit:
        component = branch.component
        if isinstance(component, Resistor):
            faults.append(ResistorOpenFault(branch.name))
            faults.append(ResistorShortFault(branch.name))
            faults.append(ParameterDriftFault(branch.name, drift_factor))
        elif isinstance(component, (Capacitor, Inductor)):
            faults.append(ParameterDriftFault(branch.name, drift_factor))
        elif hasattr(component, "gain") or hasattr(component, "transconductance"):
            faults.append(GainDegradationFault(branch.name, gain_factor))
    return faults


def digital_fault_universe(
    adc_bits: "tuple[int, ...]" = (0, 2, 5, 9),
    register_indices: "tuple[int, ...]" = (10, 11, 17),
    memory_bits: "tuple[int, ...]" = (0, 3),
    uart_masks: "tuple[int, ...]" = (0x20,),
) -> list[DigitalFault]:
    """The default digital fault set of the smart-system platform.

    ADC stuck-at-0/1 and transient flips over ``adc_bits``, register
    transients over ``register_indices`` (defaults target the threshold
    firmware's working registers), RAM flips of the crossing counter over
    ``memory_bits``, and UART corruption with each mask in ``uart_masks``.
    """
    faults: list[DigitalFault] = []
    for bit in adc_bits:
        faults.append(AdcStuckBitFault(bit, stuck_at=1))
        faults.append(AdcStuckBitFault(bit, stuck_at=0))
        faults.append(AdcBitFlipFault(bit))
    for register in register_indices:
        faults.append(RegisterTransientFault(register))
    for bit in memory_bits:
        faults.append(MemoryBitFlipFault(CROSSING_COUNTER_ADDRESS, bit))
    for mask in uart_masks:
        faults.append(UartCorruptionFault(mask))
    return faults
