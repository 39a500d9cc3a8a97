"""Discrete-event simulation kernel (SystemC-DE analogue)."""

from .kernel import Kernel
from .module import Module, PeriodicTicker
from .signal import Signal
from .simtime import FS, MS, NS, PS, SEC, US, quantize

__all__ = [
    "FS",
    "Kernel",
    "MS",
    "Module",
    "NS",
    "PS",
    "PeriodicTicker",
    "SEC",
    "Signal",
    "US",
    "quantize",
]
