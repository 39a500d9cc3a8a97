"""repro — mixed-signal components in virtual platforms, reproduced in Python.

This library reproduces *"Integration of mixed-signal components into virtual
platforms for holistic simulation of smart systems"* (Fraccaroli, Lora, Vinco,
Quaglia, Fummi — DATE 2016): the automatic conversion of Verilog-AMS analog
models into discrete-event code and the automatic abstraction of conservative
(electrical network) descriptions into signal-flow models restricted to the
outputs of interest, together with every substrate the evaluation needs
(Verilog-AMS frontend, DE/TDF/ELN simulation kernels, a reference AMS engine,
a MIPS-based virtual platform and the benchmark circuits), a batch
engine (:mod:`repro.sweep`) that simulates whole parameter sweeps through a
vectorized NumPy backend, and a fault-injection subsystem
(:mod:`repro.fault`) that runs golden-referenced robustness campaigns across
the analog, digital and firmware layers at once.

Quick start::

    from repro import AbstractionFlow
    from repro.circuits import rc_benchmark

    bench = rc_benchmark(1)
    report = AbstractionFlow(timestep=50e-9).abstract(bench.circuit(), "out")
    print(report.model.describe())

See ``README.md`` for the architecture overview, ``docs/performance.md`` for
the execution tiers and their measured effect, and the ``repro-tables``
command to regenerate the paper's tables.
"""

from .core.flow import AbstractionFlow, AbstractionReport, abstract_circuit
from .core.signalflow import SignalFlowModel, convert_signal_flow
from .core.statespace import abstract_state_space
from .errors import ReproError
from .fault import FaultCampaignResult, FaultCampaignRunner, FaultCampaignSpec
from .network.circuit import Circuit
from .sweep import (
    CornerSpec,
    GridSpec,
    MonteCarloSpec,
    SweepResult,
    SweepRunner,
    SweepSpec,
)
from .vams.parser import parse_module, parse_source

__version__ = "1.7.0"

__all__ = [
    "AbstractionFlow",
    "AbstractionReport",
    "Circuit",
    "CornerSpec",
    "FaultCampaignResult",
    "FaultCampaignRunner",
    "FaultCampaignSpec",
    "GridSpec",
    "MonteCarloSpec",
    "ReproError",
    "SignalFlowModel",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "__version__",
    "abstract_circuit",
    "abstract_state_space",
    "convert_signal_flow",
    "parse_module",
    "parse_source",
]
