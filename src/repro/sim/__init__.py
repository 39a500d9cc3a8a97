"""Simulation substrates: DE kernel, TDF kernel, ELN solver, reference AMS engine."""

from .ams import ReferenceAmsSimulator
from .cosim import AnalogCosimServer, CoSimulationBridge
from .de import Kernel, Module, PeriodicTicker, Signal
from .eln import ElnModel
from .integration import (
    DeProbeModule,
    DeSignalFlowModule,
    DeSourceModule,
    ElnDeModule,
    TdfDeBridge,
    TdfProbeModule,
    TdfSignalFlowModule,
    TdfSourceModule,
)
from .runners import (
    run_de_model,
    run_eln_model,
    run_python_model,
    run_reference_model,
    run_tdf_model,
)
from .sources import (
    PAPER_SQUARE_WAVE,
    PiecewiseLinear,
    SineWave,
    SquareWave,
    StepSource,
)
from .steps import resolve_steps
from .tdf import TdfCluster, TdfInPort, TdfModule, TdfOutPort, TdfSignal
from .trace import Trace, TraceSet

__all__ = [
    "AnalogCosimServer",
    "CoSimulationBridge",
    "DeProbeModule",
    "DeSignalFlowModule",
    "DeSourceModule",
    "ElnDeModule",
    "ElnModel",
    "Kernel",
    "Module",
    "PAPER_SQUARE_WAVE",
    "PeriodicTicker",
    "PiecewiseLinear",
    "ReferenceAmsSimulator",
    "Signal",
    "SineWave",
    "SquareWave",
    "StepSource",
    "TdfCluster",
    "TdfDeBridge",
    "TdfInPort",
    "TdfModule",
    "TdfOutPort",
    "TdfProbeModule",
    "TdfSignal",
    "TdfSignalFlowModule",
    "TdfSourceModule",
    "Trace",
    "TraceSet",
    "run_de_model",
    "run_eln_model",
    "resolve_steps",
    "run_python_model",
    "run_reference_model",
    "run_tdf_model",
]
