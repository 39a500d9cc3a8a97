"""Integration wrappers: executing analog models inside the simulation kernels.

The code generators of :mod:`repro.core.codegen` emit the SystemC-DE and
SystemC-AMS/TDF *source text*; the classes here are their executable
counterparts for this reproduction's kernels:

* :class:`DeSignalFlowModule` — a discrete-event module stepping a compiled
  signal-flow model every timestep (the SystemC-DE integration of Table I);
* :class:`TdfSignalFlowModule` — the same model inside the TDF kernel (the
  SystemC-AMS/TDF integration);
* :class:`ElnDeModule` — the conservative ELN solver embedded in the
  discrete-event kernel (the SystemC-AMS/ELN integration);
* source and probe modules for both kernels so that, as in the paper, the
  stimulus generator always lives in the same model of computation as the
  device under test.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..errors import SimulationError
from .de import Kernel, Module, PeriodicTicker, Signal
from .eln import ElnModel
from .tdf import TdfModule
from .trace import Trace


class DeSourceModule(Module):
    """Drives a discrete-event signal from a stimulus callable, every timestep."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        waveform: Callable[[float], float],
        timestep: float,
    ) -> None:
        super().__init__(kernel, name)
        self.waveform = waveform
        self.out = self.signal(waveform(0.0), "out")
        self._ticker = PeriodicTicker(kernel, f"{name}.tick", timestep, self._drive, start_delay=0.0)

    def _drive(self, now: float) -> None:
        self.out.write(self.waveform(now))


class DeProbeModule(Module):
    """Samples a discrete-event signal every timestep into a trace."""

    def __init__(self, kernel: Kernel, name: str, signal: Signal, timestep: float) -> None:
        super().__init__(kernel, name)
        self.watched = signal
        self.trace = Trace(name)
        self._ticker = PeriodicTicker(kernel, f"{name}.tick", timestep, self._sample)

    def _sample(self, now: float) -> None:
        # Defer past the source (1 delta) and device (1 delta) updates so that
        # the recorded sample reflects the value settled at this timestep.
        # Discrete-event signals update at the end of the evaluation phase,
        # so one delta per producer/consumer hop keeps the sampled waveform
        # aligned with the other engines without an artificial step delay.
        self.kernel._delta_pending.append(self._after_source)

    def _after_source(self) -> None:
        self.kernel._delta_pending.append(self._record)

    def _record(self) -> None:
        self.trace.append(self.kernel.now, self.watched.read())


class DeSignalFlowModule(Module):
    """A generated signal-flow model stepped by the discrete-event kernel."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        model: object,
        input_signals: Mapping[str, Signal],
        timestep: float | None = None,
    ) -> None:
        super().__init__(kernel, name)
        self.model = model
        self.timestep = float(timestep if timestep is not None else getattr(model, "TIMESTEP"))
        self.input_names = list(getattr(model, "INPUTS"))
        self.output_names = list(getattr(model, "OUTPUTS"))
        missing = [name for name in self.input_names if name not in input_signals]
        if missing:
            raise SimulationError(
                f"module {name!r} is missing input signals for {missing}"
            )
        self.input_signals = {name: input_signals[name] for name in self.input_names}
        self.output_signals = {
            output: self.signal(0.0, f"out_{index}")
            for index, output in enumerate(self.output_names)
        }
        self._inputs = list(self.input_signals.values())
        self._outputs = list(self.output_signals.values())
        self.step_count = 0
        self._ticker = PeriodicTicker(kernel, f"{name}.tick", self.timestep, self._step)

    def _step(self, now: float) -> None:
        # Wait one delta so that stimulus signals written at this timestep have
        # been updated before the model samples them.
        self.kernel._delta_pending.append(self._evaluate)

    def _evaluate(self) -> None:
        result = self.model.step(*[signal.read() for signal in self._inputs], self.kernel.now)
        outputs = self._outputs
        if len(outputs) == 1:
            outputs[0].write(result)
        else:
            for signal, value in zip(outputs, result):
                signal.write(value)
        self.step_count += 1

    def output(self, name: str | None = None) -> Signal:
        """Return the signal carrying the output called ``name`` (default: first)."""
        if name is None:
            name = self.output_names[0]
        return self.output_signals[name]


class ElnDeModule(Module):
    """The conservative ELN solver embedded in the discrete-event kernel."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        model: ElnModel,
        input_signals: Mapping[str, Signal],
        observed: list[str],
    ) -> None:
        super().__init__(kernel, name)
        self.model = model
        self.observed = list(observed)
        missing = [name for name in model.inputs if name not in input_signals]
        if missing:
            raise SimulationError(f"ELN module {name!r} is missing inputs {missing}")
        self.input_signals = {name: input_signals[name] for name in model.inputs}
        self.output_signals = {
            quantity: self.signal(0.0, f"out_{index}")
            for index, quantity in enumerate(self.observed)
        }
        # Inputs go straight into the solver's input vector and outputs come
        # straight from its state, through indices resolved once here.
        self._input_slots = [
            (model._input_index[name], signal) for name, signal in self.input_signals.items()
        ]
        self._output_slots = [
            (model.system.index.unknown(quantity), signal)
            for quantity, signal in self.output_signals.items()
        ]
        self._ticker = PeriodicTicker(kernel, f"{name}.tick", model.timestep, self._step)

    def _step(self, now: float) -> None:
        # One delta, as for DeSignalFlowModule: the stimulus update lands first.
        self.kernel._delta_pending.append(self._evaluate)

    def _evaluate(self) -> None:
        model = self.model
        vector = model._input_vector
        for index, signal in self._input_slots:
            vector[index] = signal.read()
        model.step()
        state = model._state
        for index, signal in self._output_slots:
            signal.write(float(state[index]))

    def output(self, quantity: str | None = None) -> Signal:
        """Return the signal carrying ``quantity`` (default: first observed)."""
        if quantity is None:
            quantity = self.observed[0]
        return self.output_signals[quantity]


# ---------------------------------------------------------------------------------
# TDF wrappers
# ---------------------------------------------------------------------------------
class TdfSourceModule(TdfModule):
    """A TDF block producing samples of a stimulus callable."""

    def __init__(self, name: str, waveform: Callable[[float], float], timestep: float) -> None:
        super().__init__(name)
        self.waveform = waveform
        self.out = self.out_port("out")
        self._timestep = timestep

    def set_attributes(self) -> None:
        self.set_timestep(self._timestep)

    def processing(self) -> None:
        self.out.write(self.waveform(self.time))


class TdfProbeModule(TdfModule):
    """A TDF block recording its input samples into a trace."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.inp = self.in_port("in")
        self.trace = Trace(name)

    def processing(self) -> None:
        self.trace.append(self.time, self.inp.read())


class TdfSignalFlowModule(TdfModule):
    """A generated signal-flow model executed as a TDF block."""

    def __init__(self, name: str, model: object) -> None:
        super().__init__(name)
        self.model = model
        self.input_names = list(getattr(model, "INPUTS"))
        self.output_names = list(getattr(model, "OUTPUTS"))
        self.inputs = {name: self.in_port(f"in_{index}") for index, name in enumerate(self.input_names)}
        self.outputs = {name: self.out_port(f"out_{index}") for index, name in enumerate(self.output_names)}

    def set_attributes(self) -> None:
        self.set_timestep(float(getattr(self.model, "TIMESTEP")))

    def processing(self) -> None:
        values = [self.inputs[name].read() for name in self.input_names]
        result = self.model.step(*values, self.time)
        outputs = (result,) if len(self.output_names) == 1 else tuple(result)
        for name, value in zip(self.output_names, outputs):
            self.outputs[name].write(value)


class TdfDeBridge(Module):
    """Runs a TDF cluster from the discrete-event kernel, one period per timestep.

    This mirrors the SystemC-AMS coupling where TDF clusters are activated by
    the SystemC kernel at their cluster period boundaries.
    """

    def __init__(self, kernel: Kernel, name: str, cluster) -> None:
        super().__init__(kernel, name)
        self.cluster = cluster
        cluster.schedule()
        if cluster.timestep is None:
            raise SimulationError("the TDF cluster has no timestep")
        self._ticker = PeriodicTicker(kernel, f"{name}.tick", cluster.timestep, cluster.run_period)

