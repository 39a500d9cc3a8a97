"""Virtual platform: MIPS CPU, memory, APB bus, UART, ADC bridge and the top level."""

from .adc_bridge import AdcBridge
from .apb import ApbBus, ApbPeripheral
from .firmware import (
    ADC_BASE,
    CROSSING_COUNTER_ADDRESS,
    PERIPHERAL_BASE,
    UART_BASE,
    averaging_monitor_source,
    default_firmware,
    threshold_monitor_source,
)
from .memory import Memory
from .mips import AssembledProgram, Assembler, MipsCpu, assemble
from .platform import (
    ABSTRACTED_STYLES,
    ANALOG_STYLES,
    PlatformRunResult,
    SmartSystemPlatform,
)
from .uart import Uart

__all__ = [
    "ABSTRACTED_STYLES",
    "ADC_BASE",
    "ANALOG_STYLES",
    "AdcBridge",
    "ApbBus",
    "ApbPeripheral",
    "AssembledProgram",
    "Assembler",
    "CROSSING_COUNTER_ADDRESS",
    "Memory",
    "MipsCpu",
    "PERIPHERAL_BASE",
    "PlatformRunResult",
    "SmartSystemPlatform",
    "UART_BASE",
    "Uart",
    "assemble",
    "averaging_monitor_source",
    "default_firmware",
    "threshold_monitor_source",
]
