"""Modified Nodal Analysis (MNA) of linear networks, discretised at a fixed step.

The conservative solvers of the library — the SystemC-AMS/ELN analogue
(:mod:`repro.sim.eln`, whose transient loop the reference AMS engine of
:mod:`repro.sim.ams` inherits) and the numeric state-space abstraction
(:mod:`repro.core.statespace`) — share this machinery.  Energy-storage
elements are replaced by their backward-Euler (or trapezoidal) companion
models so that each timestep reduces to the solution of the linear system::

    A * z_k = B * z_{k-1} + S * u_k + s0

where ``z`` stacks the non-ground node potentials and the currents of the
voltage-defined branches, and ``u`` stacks the external stimuli.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SingularNetworkError, TopologyError
from .circuit import Branch, Circuit
from .components import (
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageControlledCurrentSource,
    VoltageControlledVoltageSource,
    VoltageSource,
)

BACKWARD_EULER = "backward_euler"
TRAPEZOIDAL = "trapezoidal"


@dataclass
class MnaIndex:
    """Mapping between circuit quantities and rows/columns of the MNA system."""

    unknowns: list[str]
    inputs: list[str]

    def __post_init__(self) -> None:
        self._unknown_index = {name: i for i, name in enumerate(self.unknowns)}
        self._input_index = {name: i for i, name in enumerate(self.inputs)}

    def unknown(self, name: str) -> int:
        """Return the row/column of the unknown called ``name``."""
        try:
            return self._unknown_index[name]
        except KeyError as exc:
            raise TopologyError(f"unknown MNA quantity {name!r}") from exc

    def input(self, name: str) -> int:
        """Return the column of the input called ``name``."""
        try:
            return self._input_index[name]
        except KeyError as exc:
            raise TopologyError(f"unknown MNA input {name!r}") from exc


class MnaSystem:
    """Discretised MNA system of a :class:`~repro.network.circuit.Circuit`.

    Parameters
    ----------
    circuit:
        The network to analyse (validated on construction).
    timestep:
        Fixed integration step used to build the companion models.
    method:
        ``"backward_euler"`` (default) or ``"trapezoidal"``.
    """

    def __init__(
        self,
        circuit: Circuit,
        timestep: float,
        method: str = BACKWARD_EULER,
    ) -> None:
        if timestep <= 0.0:
            raise ValueError("timestep must be positive")
        if method not in (BACKWARD_EULER, TRAPEZOIDAL):
            raise ValueError(f"unknown integration method {method!r}")
        circuit.validate()
        self.circuit = circuit
        self.timestep = float(timestep)
        self.method = method
        self.index = self._build_index()
        size = len(self.index.unknowns)
        inputs = len(self.index.inputs)
        self.A = np.zeros((size, size))
        self.B = np.zeros((size, size))
        self.S = np.zeros((size, inputs))
        self.s0 = np.zeros(size)
        self._stamp_all()
        self._lu: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction -----------------------------------------------------------
    def _build_index(self) -> MnaIndex:
        ground = self.circuit.ground
        unknowns = [f"V({node})" for node in self.circuit.node_names() if node != ground]
        for branch in self.circuit:
            if self._carries_current_unknown(branch):
                unknowns.append(branch.current_variable())
        return MnaIndex(unknowns, self.circuit.input_names())

    def _carries_current_unknown(self, branch: Branch) -> bool:
        if branch.component.needs_current_unknown():
            return True
        # Trapezoidal companion models need the branch current history, so
        # capacitors are promoted to current-carrying branches as well.
        return self.method == TRAPEZOIDAL and isinstance(branch.component, Capacitor)

    def _node_index(self, node: str) -> int | None:
        if node == self.circuit.ground:
            return None
        return self.index.unknown(f"V({node})")

    def _stamp_conductance(
        self, matrix: np.ndarray, positive: int | None, negative: int | None, value: float
    ) -> None:
        if positive is not None:
            matrix[positive, positive] += value
        if negative is not None:
            matrix[negative, negative] += value
        if positive is not None and negative is not None:
            matrix[positive, negative] -= value
            matrix[negative, positive] -= value

    def _stamp_all(self) -> None:
        for branch in self.circuit:
            component = branch.component
            positive = self._node_index(branch.positive)
            negative = self._node_index(branch.negative)
            if isinstance(component, Resistor):
                self._stamp_conductance(self.A, positive, negative, 1.0 / component.resistance)
            elif isinstance(component, Capacitor):
                self._stamp_capacitor(branch, component, positive, negative)
            elif isinstance(component, Inductor):
                self._stamp_inductor(branch, component, positive, negative)
            elif isinstance(component, VoltageControlledVoltageSource):
                self._stamp_vcvs(branch, component, positive, negative)
            elif isinstance(component, VoltageSource):
                self._stamp_voltage_source(branch, component, positive, negative)
            elif isinstance(component, CurrentSource):
                self._stamp_current_source(branch, component, positive, negative)
            elif isinstance(component, VoltageControlledCurrentSource):
                self._stamp_vccs(component, positive, negative)
            else:
                raise TopologyError(
                    f"component type {type(component).__name__} on branch "
                    f"{branch.name!r} is not supported by the MNA builder"
                )

    def _stamp_capacitor(
        self,
        branch: Branch,
        component: Capacitor,
        positive: int | None,
        negative: int | None,
    ) -> None:
        if self.method == BACKWARD_EULER:
            # Backward Euler: i_k = (C/dt) * (v_k - v_{k-1}); a conductance in
            # parallel with a history current source.
            geq = component.capacitance / self.timestep
            self._stamp_conductance(self.A, positive, negative, geq)
            self._stamp_conductance(self.B, positive, negative, geq)
            return
        # Trapezoidal: i_k + i_{k-1} = (2C/dt) * (v_k - v_{k-1}); the branch
        # current is carried as an explicit unknown so its history is available.
        row = self.index.unknown(branch.current_variable())
        geq = 2.0 * component.capacitance / self.timestep
        if positive is not None:
            self.A[positive, row] += 1.0
            self.A[row, positive] += geq
            self.B[row, positive] += geq
        if negative is not None:
            self.A[negative, row] -= 1.0
            self.A[row, negative] -= geq
            self.B[row, negative] -= geq
        self.A[row, row] -= 1.0
        self.B[row, row] += 1.0

    def _stamp_inductor(
        self,
        branch: Branch,
        component: Inductor,
        positive: int | None,
        negative: int | None,
    ) -> None:
        row = self.index.unknown(branch.current_variable())
        if positive is not None:
            self.A[positive, row] += 1.0
            self.A[row, positive] += 1.0
        if negative is not None:
            self.A[negative, row] -= 1.0
            self.A[row, negative] -= 1.0
        if self.method == BACKWARD_EULER:
            # Backward Euler: v_k = (L/dt) * (i_k - i_{k-1}).
            req = component.inductance / self.timestep
            self.A[row, row] -= req
            self.B[row, row] -= req
            return
        # Trapezoidal: v_k + v_{k-1} = (2L/dt) * (i_k - i_{k-1}).
        req = 2.0 * component.inductance / self.timestep
        self.A[row, row] -= req
        self.B[row, row] -= req
        if positive is not None:
            self.B[row, positive] -= 1.0
        if negative is not None:
            self.B[row, negative] += 1.0

    def _stamp_voltage_source(
        self,
        branch: Branch,
        component: VoltageSource,
        positive: int | None,
        negative: int | None,
    ) -> None:
        row = self.index.unknown(branch.current_variable())
        if positive is not None:
            self.A[positive, row] += 1.0
            self.A[row, positive] += 1.0
        if negative is not None:
            self.A[negative, row] -= 1.0
            self.A[row, negative] -= 1.0
        if component.input_signal is not None:
            self.S[row, self.index.input(component.input_signal)] += 1.0
        else:
            self.s0[row] += component.dc_value

    def _stamp_vcvs(
        self,
        branch: Branch,
        component: VoltageControlledVoltageSource,
        positive: int | None,
        negative: int | None,
    ) -> None:
        row = self.index.unknown(branch.current_variable())
        if positive is not None:
            self.A[positive, row] += 1.0
            self.A[row, positive] += 1.0
        if negative is not None:
            self.A[negative, row] -= 1.0
            self.A[row, negative] -= 1.0
        control_positive = self._node_index(component.control_positive)
        control_negative = self._node_index(component.control_negative)
        if control_positive is not None:
            self.A[row, control_positive] -= component.gain
        if control_negative is not None:
            self.A[row, control_negative] += component.gain

    def _stamp_current_source(
        self,
        branch: Branch,
        component: CurrentSource,
        positive: int | None,
        negative: int | None,
    ) -> None:
        # The branch current (positive -> negative through the component) is
        # imposed; it leaves the positive node.
        if component.input_signal is not None:
            column = self.index.input(component.input_signal)
            if positive is not None:
                self.S[positive, column] -= 1.0
            if negative is not None:
                self.S[negative, column] += 1.0
        else:
            if positive is not None:
                self.s0[positive] -= component.dc_value
            if negative is not None:
                self.s0[negative] += component.dc_value

    def _stamp_vccs(
        self,
        component: VoltageControlledCurrentSource,
        positive: int | None,
        negative: int | None,
    ) -> None:
        control_positive = self._node_index(component.control_positive)
        control_negative = self._node_index(component.control_negative)
        gm = component.transconductance
        for node_index, sign in ((positive, 1.0), (negative, -1.0)):
            if node_index is None:
                continue
            if control_positive is not None:
                self.A[node_index, control_positive] += sign * gm
            if control_negative is not None:
                self.A[node_index, control_negative] -= sign * gm

    def restamp(self) -> None:
        """Re-evaluate every component stamp from scratch.

        The reference AMS engine calls this every solver iteration to model
        the per-step "device evaluation" cost of SPICE-class simulators; the
        cached factorisation is invalidated as well.
        """
        self.A[:] = 0.0
        self.B[:] = 0.0
        self.S[:] = 0.0
        self.s0[:] = 0.0
        self._lu = None
        self._stamp_all()

    # -- solving -----------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of MNA unknowns."""
        return len(self.index.unknowns)

    def input_vector(self, values: dict[str, float]) -> np.ndarray:
        """Pack an input dictionary into a vector ordered like ``index.inputs``."""
        vector = np.zeros(len(self.index.inputs))
        for name, value in values.items():
            vector[self.index.input(name)] = value
        return vector

    def step(self, previous: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Advance the discretised system by one timestep."""
        rhs = self.B @ previous + self.S @ inputs + self.s0
        return self._solve(rhs)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        try:
            if self._lu is None:
                self._lu = _lu_factor(self.A)
            return _lu_solve(self._lu, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularNetworkError(
                f"the MNA matrix of circuit {self.circuit.name!r} is singular"
            ) from exc

    def dc_operating_point(self, inputs: np.ndarray | None = None) -> np.ndarray:
        """Solve the DC operating point (steady state of the discretised system)."""
        if inputs is None:
            inputs = np.zeros(len(self.index.inputs))
        matrix = self.A - self.B
        rhs = self.S @ inputs + self.s0
        try:
            return np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularNetworkError(
                f"no DC operating point for circuit {self.circuit.name!r}"
            ) from exc

    def discrete_state_space(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return matrices ``(F, G, g0)`` with ``z_k = F z_{k-1} + G u_k + g0``."""
        try:
            inverse = np.linalg.inv(self.A)
        except np.linalg.LinAlgError as exc:
            raise SingularNetworkError(
                f"the MNA matrix of circuit {self.circuit.name!r} is singular"
            ) from exc
        return inverse @ self.B, inverse @ self.S, inverse @ self.s0


def _lu_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cache-friendly dense factorisation: store the matrix inverse.

    For the small dense systems handled here (tens of unknowns) computing and
    reusing the inverse is the cheapest way to make every step a single
    matrix-vector product, which is what gives the ELN analogue its speed
    advantage over the reference AMS engine that refactorises every step.
    """
    return (np.linalg.inv(matrix), matrix)


def _lu_solve(factor: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    inverse, _ = factor
    return inverse @ rhs
