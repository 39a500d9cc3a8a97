"""Reference AMS transient engine (the Verilog-AMS / ELDO analogue).

The paper's baseline is the simulation of the original Verilog-AMS
description with a SPICE-class solver: "the sparse linear solver and device
evaluation are two most serious bottlenecks in this kind of simulators"
(Section III.B).  :class:`ReferenceAmsSimulator` reproduces that structure
on top of the ELN engine, whose inputs, state, observation and standalone
run it shares:

* it is built directly from the conservative description (Verilog-AMS source,
  a parsed module or a circuit netlist);
* every solver iteration re-evaluates all device stamps ("device
  evaluation") and factorises/solves the full system from scratch — nothing
  is cached across steps;
* it integrates with the trapezoidal rule on an internal timestep finer than
  the platform timestep (``oversampling``), so its waveforms are the most
  accurate of every engine and serve as the golden reference for the NRMSE
  columns of Tables I and III.

It is intentionally the slowest engine; the abstraction methodology's speedups
are measured against it.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import SimulationError
from ..network.circuit import Circuit
from ..network.mna import TRAPEZOIDAL
from ..vams.ast import VamsModule
from ..vams.netlist import to_circuit
from ..vams.parser import parse_module
from .eln import ElnModel


def _coerce_circuit(model: "Circuit | VamsModule | str") -> Circuit:
    if isinstance(model, Circuit):
        return model
    if isinstance(model, VamsModule):
        return to_circuit(model)
    if isinstance(model, str):
        return to_circuit(parse_module(model))
    raise SimulationError(
        f"cannot build a reference simulation from {type(model).__name__}"
    )


class ReferenceAmsSimulator(ElnModel):
    """Full conservative transient simulation of a Verilog-AMS description.

    Parameters
    ----------
    model:
        Verilog-AMS source text, a parsed module, or a circuit netlist.
    timestep:
        The *external* synchronisation timestep (the platform timestep).
    oversampling:
        Number of internal integration steps per external step; the internal
        timestep is ``timestep / oversampling``.
    solver_iterations:
        Number of evaluate/solve iterations per internal step, emulating the
        Newton iterations a SPICE engine runs even on linear circuits.
    """

    def __init__(
        self,
        model: "Circuit | VamsModule | str",
        timestep: float,
        oversampling: int = 2,
        solver_iterations: int = 2,
        method: str = TRAPEZOIDAL,
    ) -> None:
        if oversampling < 1:
            raise ValueError("oversampling must be at least 1")
        if solver_iterations < 1:
            raise ValueError("solver_iterations must be at least 1")
        self.oversampling = int(oversampling)
        self.solver_iterations = int(solver_iterations)
        # The MNA system integrates on the internal step; ``timestep`` stays
        # the external one, as on the ELN engine.
        super().__init__(
            _coerce_circuit(model), float(timestep) / self.oversampling, method=method
        )
        self.timestep = float(timestep)
        self.solve_count = 0

    def reset(self) -> None:
        """Return to the all-zero initial condition."""
        super().reset()
        self.solve_count = 0

    def step(self, inputs: Mapping[str, float] | None = None) -> None:
        """Advance by one *external* timestep (running the internal sub-steps)."""
        if inputs is not None:
            for name, value in inputs.items():
                self.set_input(name, value)
        for _ in range(self.oversampling):
            self._solve_internal_step()
        self.time += self.timestep
        self.step_count += 1

    def _solve_internal_step(self) -> None:
        state = self._state
        for _ in range(self.solver_iterations):
            # Device evaluation: rebuild every stamp from the netlist.
            self.system.restamp()
            rhs = self.system.B @ state + self.system.S @ self._input_vector + self.system.s0
            # Matrix solution: factorise and solve from scratch (no caching).
            try:
                solution = np.linalg.solve(self.system.A, rhs)
            except np.linalg.LinAlgError as exc:
                raise SimulationError(
                    f"the reference engine hit a singular matrix in circuit "
                    f"{self.circuit.name!r}"
                ) from exc
            self.solve_count += 1
        self._state = solution
