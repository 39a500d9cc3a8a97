"""Standalone runners: one function per simulation target of Tables I and II.

Each runner simulates one analog component in isolation, stimulated by the
same waveform (as callables — the generator is degenerate enough that keeping
it in the component's MoC only matters for the wrappers, which these runners
use), and returns the recorded output waveforms.  The benchmark harness and
the examples build on these.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..core.signalflow import SignalFlowModel
from ..core.codegen.python_backend import compile_model_cached
from ..network.circuit import Circuit
from .ams import ReferenceAmsSimulator
from .de import Kernel
from .eln import ElnModel
from .integration import (
    DeProbeModule,
    DeSignalFlowModule,
    DeSourceModule,
    TdfProbeModule,
    TdfSignalFlowModule,
    TdfSourceModule,
)
from .steps import resolve_steps
from .tdf import TdfCluster
from .trace import Trace, TraceSet

Stimuli = Mapping[str, Callable[[float], float]]

def run_python_model(
    model: "SignalFlowModel | object",
    stimuli: Stimuli,
    duration: float,
) -> TraceSet:
    """Run the generated plain-Python model (the paper's C++ target) directly."""
    instance = _instantiate(model)
    dt = float(instance.TIMESTEP)
    input_names = list(instance.INPUTS)
    output_names = list(instance.OUTPUTS)
    waveforms = [stimuli[name] for name in input_names]
    traces = TraceSet({name: Trace(name) for name in output_names})
    steps = resolve_steps(duration, dt)
    single_output = len(output_names) == 1
    step = instance.step
    for index in range(steps):
        time = (index + 1) * dt
        result = step(*[waveform(time) for waveform in waveforms], time)
        if single_output:
            traces[output_names[0]].append(time, result)
        else:
            for name, value in zip(output_names, result):
                traces[name].append(time, value)
    return traces


def run_de_model(
    model: "SignalFlowModel | object",
    stimuli: Stimuli,
    duration: float,
) -> TraceSet:
    """Run the generated model inside the discrete-event kernel (SystemC-DE row)."""
    instance = _instantiate(model)
    dt = float(instance.TIMESTEP)
    resolve_steps(duration, dt)
    kernel = Kernel()
    sources = {
        name: DeSourceModule(kernel, f"src_{name}", stimuli[name], dt)
        for name in instance.INPUTS
    }
    device = DeSignalFlowModule(
        kernel,
        "dut",
        instance,
        {name: source.out for name, source in sources.items()},
    )
    probes = {
        name: DeProbeModule(kernel, name, device.output(name), dt)
        for name in instance.OUTPUTS
    }
    kernel.run(duration)
    return TraceSet({name: probe.trace for name, probe in probes.items()})


def run_tdf_model(
    model: "SignalFlowModel | object",
    stimuli: Stimuli,
    duration: float,
) -> TraceSet:
    """Run the generated model inside the TDF kernel (SystemC-AMS/TDF row)."""
    instance = _instantiate(model)
    dt = float(instance.TIMESTEP)
    cluster = TdfCluster("isolation")
    device = cluster.add(TdfSignalFlowModule("dut", instance))
    probes: dict[str, TdfProbeModule] = {}
    for name in instance.INPUTS:
        source = cluster.add(TdfSourceModule(f"src_{name}", stimuli[name], dt))
        cluster.connect(source.out, device.inputs[name])
    for name in instance.OUTPUTS:
        probe = cluster.add(TdfProbeModule(name))
        cluster.connect(device.outputs[name], probe.inp)
        probes[name] = probe
    cluster.run(duration)
    return TraceSet({name: probe.trace for name, probe in probes.items()})


def run_eln_model(
    circuit: Circuit,
    stimuli: Stimuli,
    duration: float,
    timestep: float,
    record: list[str],
) -> TraceSet:
    """Run the conservative ELN solver standalone (SystemC-AMS/ELN row)."""
    return ElnModel(circuit, timestep).run(stimuli, duration, record)


def run_reference_model(
    circuit: "Circuit | str",
    stimuli: Stimuli,
    duration: float,
    timestep: float,
    record: list[str],
) -> TraceSet:
    """Run the reference Verilog-AMS engine standalone (the golden baseline)."""
    return ReferenceAmsSimulator(circuit, timestep).run(stimuli, duration, record)


def _instantiate(model: "SignalFlowModel | type | object"):
    """Accept a SignalFlowModel (compiled through the cache), a class or an instance."""
    if isinstance(model, SignalFlowModel):
        return compile_model_cached(model)()
    if isinstance(model, type):
        return model()
    return model
