"""Fault injection and robustness campaigns (the ``repro.fault`` subsystem).

The virtual platform's canonical industrial use: does the firmware detect a
drifted sensor?  Does a stuck ADC bit corrupt the control loop?  This package
makes those *what-if* questions executable across every layer of the stack:

* :mod:`~repro.fault.models` — the fault library: analog faults as netlist
  transforms (open/short/drift/gain degradation) that flow through all code
  generation backends, and digital faults as platform hooks (ADC/UART bus
  saboteurs, RAM and register bit flips, instruction corruption) with
  block-stepping-exact scheduled injection;
* :mod:`~repro.fault.campaign` — :class:`FaultCampaignSpec` (fault universe ×
  activation times × platform scenarios, seed-deterministic) expanding into
  :class:`FaultScenario` runs, and :class:`FaultCampaignRunner`, the
  platform sweep runner with golden-run references and crash capture;
* :mod:`~repro.fault.report` — per-fault verdicts (silent / trace-divergent /
  firmware-detected / crash), fault-coverage matrices, equivalence collapse,
  markdown/CSV reports.

Quick start::

    from repro.circuits import build_rc_filter
    from repro.fault import (
        AdcStuckBitFault, FaultCampaignRunner, FaultCampaignSpec,
        ParameterDriftFault,
    )
    from repro.sim import SquareWave

    spec = FaultCampaignSpec(
        faults=[ParameterDriftFault("r1", 1.5), AdcStuckBitFault(bit=9)],
        activation_times=(50e-6,),
    )
    runner = FaultCampaignRunner(build_rc_filter, "out",
                                 {"vin": SquareWave(period=40e-6)})
    result = runner.run(spec, duration=200e-6)
    print(result.to_markdown())
"""

from .campaign import (
    FAULT_PARAM,
    FaultableCircuitFactory,
    FaultCampaignRunner,
    FaultCampaignSpec,
    FaultScenario,
)
from .models import (
    AdcBitFlipFault,
    AdcStuckBitFault,
    AnalogFault,
    BusSaboteur,
    DigitalFault,
    FaultModel,
    GainDegradationFault,
    InstructionCorruptionFault,
    MemoryBitFlipFault,
    ParameterDriftFault,
    RegisterTransientFault,
    ResistorOpenFault,
    ResistorShortFault,
    UartCorruptionFault,
    analog_fault_universe,
    digital_fault_universe,
)
from .report import (
    VERDICT_CRASH,
    VERDICT_DETECTED,
    VERDICT_SILENT,
    VERDICT_TRACE,
    VERDICTS,
    FaultCampaignResult,
    FaultVerdict,
    classify_run,
    trace_nrmse,
)

__all__ = [
    "AdcBitFlipFault",
    "AdcStuckBitFault",
    "AnalogFault",
    "BusSaboteur",
    "DigitalFault",
    "FAULT_PARAM",
    "FaultableCircuitFactory",
    "FaultCampaignResult",
    "FaultCampaignRunner",
    "FaultCampaignSpec",
    "FaultModel",
    "FaultScenario",
    "FaultVerdict",
    "GainDegradationFault",
    "InstructionCorruptionFault",
    "MemoryBitFlipFault",
    "ParameterDriftFault",
    "RegisterTransientFault",
    "ResistorOpenFault",
    "ResistorShortFault",
    "UartCorruptionFault",
    "VERDICTS",
    "VERDICT_CRASH",
    "VERDICT_DETECTED",
    "VERDICT_SILENT",
    "VERDICT_TRACE",
    "analog_fault_universe",
    "classify_run",
    "digital_fault_universe",
    "trace_nrmse",
]
