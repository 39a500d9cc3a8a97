"""Electrical Linear Network solver (SystemC-AMS/ELN analogue).

ELN models "electrical networks through the instantiation of predefined
primitives ... The SystemC-AMS internal solver analyses the ELN components to
derive the equations describing system behavior, that are solved to determine
system state at any simulation time" (paper Section II.A).

:class:`ElnModel` plays that role here: it is built from the same primitive
vocabulary (resistors, capacitors, inductors, sources, controlled sources),
assembles the network equations once (through the shared MNA machinery) and
then solves them at every timestep while the simulation advances.  It is the
conservative — hence slower but more accurate — counterpart of the abstracted
signal-flow models.  The reference AMS engine
(:class:`~repro.sim.ams.ReferenceAmsSimulator`) is an :class:`ElnModel` that
replaces only ``step``, with an oversampled solve from scratch.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..errors import SimulationError
from ..network.circuit import Circuit
from ..network.mna import TRAPEZOIDAL, MnaSystem
from .steps import resolve_steps
from .trace import Trace, TraceSet


class ElnModel:
    """A conservative network solved step by step at a fixed timestep.

    Parameters
    ----------
    circuit:
        The electrical network (built programmatically or via the Verilog-AMS
        frontend).  Input stimuli are the circuit's source input signals.
    timestep:
        How far each :meth:`step` advances; the solver integrates at this
        step (the reference engine subclass subdivides it).
    method:
        Companion-model integration scheme; ELN uses trapezoidal integration
        by default, which is why its accuracy is better than the abstracted
        backward-Euler models (paper Table I error column).
    """

    def __init__(
        self,
        circuit: Circuit,
        timestep: float,
        method: str = TRAPEZOIDAL,
    ) -> None:
        self.circuit = circuit
        self.timestep = float(timestep)
        self.system = MnaSystem(circuit, timestep, method=method)
        self.inputs = list(self.system.index.inputs)
        self._state = np.zeros(self.system.size)
        self._input_vector = np.zeros(len(self.inputs))
        self._input_index = {name: i for i, name in enumerate(self.inputs)}
        self.time = 0.0
        self.step_count = 0

    # -- stepping ---------------------------------------------------------------------
    def reset(self) -> None:
        """Return to the initial state (all quantities zero)."""
        self._state = np.zeros(self.system.size)
        self.time = 0.0
        self.step_count = 0

    def set_input(self, name: str, value: float) -> None:
        """Set the value of one stimulus for the next step."""
        try:
            self._input_vector[self._input_index[name]] = value
        except KeyError as exc:
            raise SimulationError(
                f"unknown input {name!r}; available: {self.inputs}"
            ) from exc

    def step(self, inputs: Mapping[str, float] | None = None) -> None:
        """Advance the network solution by one timestep."""
        if inputs is not None:
            for name, value in inputs.items():
                self.set_input(name, value)
        self._state = self.system.step(self._state, self._input_vector)
        self.time += self.timestep
        self.step_count += 1

    # -- observation ---------------------------------------------------------------------
    def value(self, quantity: str) -> float:
        """Return the current value of a node potential or branch current."""
        return float(self._state[self.system.index.unknown(quantity)])

    def node_voltage(self, node: str) -> float:
        """Return the potential of ``node`` (0 for the ground node)."""
        if node == self.circuit.ground:
            return 0.0
        return self.value(f"V({node})")

    def quantities(self) -> list[str]:
        """Every solvable quantity name."""
        return list(self.system.index.unknowns)

    # -- standalone run -------------------------------------------------------------------
    def run(
        self,
        stimuli: Mapping[str, Callable[[float], float]],
        duration: float,
        record: list[str] | None = None,
    ) -> TraceSet:
        """Run standalone for ``duration`` seconds (whole steps), recording selected quantities."""
        steps = resolve_steps(duration, self.timestep)
        record = record or list(self.system.index.unknowns)
        traces = TraceSet({name: Trace(name) for name in record})
        for _ in range(steps):
            time = self.time + self.timestep
            self.step({name: stimulus(time) for name, stimulus in stimuli.items()})
            for name in record:
                traces[name].append(self.time, self.value(name))
        return traces
