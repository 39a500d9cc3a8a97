"""Two-terminal and controlled components of electrical linear networks.

Each component knows how to express its constitutive relation — the *dipole
equation* of the paper — as a symbolic :class:`~repro.expr.equation.Equation`
between the branch flow ``I(branch)`` and the node potentials ``V(node)``, and
how to stamp itself into the Modified Nodal Analysis matrices used by the
conservative solvers (:mod:`repro.network.mna`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..expr.ast import BinaryOp, Constant, Derivative, Expr, Variable
from ..expr.equation import DIPOLE, Equation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .circuit import Branch


def node_potential(node: str, ground: str = "gnd") -> Expr:
    """Return the expression for the potential of ``node`` (zero for ground)."""
    if node == ground:
        return Constant(0.0)
    return Variable(f"V({node})")


def branch_voltage(positive: str, negative: str, ground: str = "gnd") -> Expr:
    """Return the expression ``V(positive) - V(negative)``."""
    return BinaryOp("-", node_potential(positive, ground), node_potential(negative, ground))


def branch_current(branch_name: str) -> Variable:
    """Return the flow variable ``I(branch)`` of a branch."""
    return Variable(f"I({branch_name})")


def _check_positive(name: str, value: float) -> None:
    """Refuse a value the solvers cannot use: it must be finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class Component:
    """Base class of every network component.

    Subclasses provide :meth:`dipole_equation` and the MNA stamping hooks.
    """

    #: Short type code used in branch auto-naming (``R``, ``C``, ``V``...).
    type_code = "X"

    def dipole_equation(self, branch: "Branch", ground: str = "gnd") -> Equation:
        """Return the constitutive relation of the component on ``branch``."""
        raise NotImplementedError

    def needs_current_unknown(self) -> bool:
        """Whether MNA must carry the branch current as an explicit unknown."""
        return False

    def input_name(self) -> str | None:
        """Name of the external stimulus driving the component, if any."""
        return None


@dataclass
class Resistor(Component):
    """An ideal resistor: ``V(p) - V(n) = R * I(branch)``."""

    resistance: float
    type_code = "R"

    def __post_init__(self) -> None:
        _check_positive("resistance", self.resistance)

    def dipole_equation(self, branch: "Branch", ground: str = "gnd") -> Equation:
        voltage = branch_voltage(branch.positive, branch.negative, ground)
        rhs = BinaryOp("*", Constant(self.resistance), branch_current(branch.name))
        return Equation(voltage, rhs, kind=DIPOLE, name=f"dipole:{branch.name}")


@dataclass
class Capacitor(Component):
    """An ideal capacitor: ``I(branch) = C * ddt(V(p) - V(n))``."""

    capacitance: float
    type_code = "C"

    def __post_init__(self) -> None:
        _check_positive("capacitance", self.capacitance)

    def dipole_equation(self, branch: "Branch", ground: str = "gnd") -> Equation:
        voltage = branch_voltage(branch.positive, branch.negative, ground)
        rhs = BinaryOp("*", Constant(self.capacitance), Derivative(voltage))
        return Equation(
            branch_current(branch.name), rhs, kind=DIPOLE, name=f"dipole:{branch.name}"
        )


@dataclass
class Inductor(Component):
    """An ideal inductor: ``V(p) - V(n) = L * ddt(I(branch))``."""

    inductance: float
    type_code = "L"

    def __post_init__(self) -> None:
        _check_positive("inductance", self.inductance)

    def dipole_equation(self, branch: "Branch", ground: str = "gnd") -> Equation:
        voltage = branch_voltage(branch.positive, branch.negative, ground)
        rhs = BinaryOp(
            "*", Constant(self.inductance), Derivative(branch_current(branch.name))
        )
        return Equation(voltage, rhs, kind=DIPOLE, name=f"dipole:{branch.name}")

    def needs_current_unknown(self) -> bool:
        return True


@dataclass
class VoltageSource(Component):
    """An independent voltage source.

    ``input_signal`` names the external stimulus (an entry of the stimulus
    dictionary ``U`` of the paper); when ``None`` the source holds the
    constant ``dc_value``.
    """

    dc_value: float = 0.0
    input_signal: str | None = None
    type_code = "V"

    def dipole_equation(self, branch: "Branch", ground: str = "gnd") -> Equation:
        voltage = branch_voltage(branch.positive, branch.negative, ground)
        rhs: Expr
        if self.input_signal is not None:
            rhs = Variable(self.input_signal)
        else:
            rhs = Constant(self.dc_value)
        return Equation(voltage, rhs, kind=DIPOLE, name=f"dipole:{branch.name}")

    def needs_current_unknown(self) -> bool:
        return True

    def input_name(self) -> str | None:
        return self.input_signal


@dataclass
class CurrentSource(Component):
    """An independent current source: ``I(branch) = value`` (or an input)."""

    dc_value: float = 0.0
    input_signal: str | None = None
    type_code = "I"

    def dipole_equation(self, branch: "Branch", ground: str = "gnd") -> Equation:
        rhs: Expr
        if self.input_signal is not None:
            rhs = Variable(self.input_signal)
        else:
            rhs = Constant(self.dc_value)
        return Equation(
            branch_current(branch.name), rhs, kind=DIPOLE, name=f"dipole:{branch.name}"
        )

    def input_name(self) -> str | None:
        return self.input_signal


@dataclass
class VoltageControlledVoltageSource(Component):
    """A VCVS: ``V(p) - V(n) = gain * (V(ctrl_p) - V(ctrl_n))``.

    Used to model amplification stages (e.g. the operational amplifier
    macromodel of the paper's Figure 8.b).
    """

    gain: float
    control_positive: str = ""
    control_negative: str = "gnd"
    type_code = "E"

    def dipole_equation(self, branch: "Branch", ground: str = "gnd") -> Equation:
        voltage = branch_voltage(branch.positive, branch.negative, ground)
        control = branch_voltage(self.control_positive, self.control_negative, ground)
        rhs = BinaryOp("*", Constant(self.gain), control)
        return Equation(voltage, rhs, kind=DIPOLE, name=f"dipole:{branch.name}")

    def needs_current_unknown(self) -> bool:
        return True


@dataclass
class VoltageControlledCurrentSource(Component):
    """A VCCS: ``I(branch) = transconductance * (V(ctrl_p) - V(ctrl_n))``."""

    transconductance: float
    control_positive: str = ""
    control_negative: str = "gnd"
    type_code = "G"

    def dipole_equation(self, branch: "Branch", ground: str = "gnd") -> Equation:
        control = branch_voltage(self.control_positive, self.control_negative, ground)
        rhs = BinaryOp("*", Constant(self.transconductance), control)
        return Equation(
            branch_current(branch.name), rhs, kind=DIPOLE, name=f"dipole:{branch.name}"
        )


#: Aliases matching common SPICE-style nomenclature.
VCVS = VoltageControlledVoltageSource
VCCS = VoltageControlledCurrentSource
