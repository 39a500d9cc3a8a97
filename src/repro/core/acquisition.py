"""Step 1 — Acquisition (paper Section IV.A).

The acquisition step takes the conservative description — either a typed
:class:`~repro.network.circuit.Circuit`, a parsed Verilog-AMS module, or raw
Verilog-AMS source text — and parses the right-hand side of every dipole
equation into an AST.  Its cost is linear in the number of dipole equations,
O(|B|).  The enrichment step stores the equations in its multimap and builds
the topology graph ``G = (N, B)`` it needs for the mesh analysis; ``|N|`` and
``|B|`` are read off the circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AcquisitionError
from ..expr.equation import Equation
from ..network.circuit import Circuit
from ..vams.ast import VamsModule
from ..vams.classify import classify_module
from ..vams.netlist import to_circuit
from ..vams.parser import parse_module


@dataclass
class AcquisitionResult:
    """Output of the acquisition step.

    Attributes
    ----------
    circuit:
        The typed netlist of the conservative description.
    dipole_equations:
        The dipole equations, in branch declaration order.
    inputs:
        Names of the external stimuli ``U`` driving the network.
    """

    circuit: Circuit
    dipole_equations: list[Equation]
    inputs: list[str]

    @property
    def node_count(self) -> int:
        """``|N|``, the number of circuit nodes (including ground)."""
        return len(self.circuit.node_names())

    @property
    def branch_count(self) -> int:
        """``|B|``, the number of circuit branches."""
        return len(self.circuit)


def _coerce_circuit(model: "Circuit | VamsModule | str") -> Circuit:
    if isinstance(model, Circuit):
        return model
    if isinstance(model, VamsModule):
        classification = classify_module(model)
        if not classification.is_conservative:
            raise AcquisitionError(
                f"module {model.name!r} is a signal-flow description; the "
                "abstraction methodology applies to conservative models "
                "(use repro.core.signalflow for direct conversion)"
            )
        return to_circuit(model)
    if isinstance(model, str):
        return _coerce_circuit(parse_module(model))
    raise AcquisitionError(
        f"cannot acquire a model of type {type(model).__name__}; expected a "
        "Circuit, a parsed VamsModule or Verilog-AMS source text"
    )


def acquire(model: "Circuit | VamsModule | str") -> AcquisitionResult:
    """Run the acquisition step on ``model``.

    Parameters
    ----------
    model:
        A typed circuit, a parsed Verilog-AMS module, or Verilog-AMS source.

    Returns
    -------
    AcquisitionResult
        The circuit, its dipole equations and its inputs.

    Raises
    ------
    AcquisitionError
        When the model cannot be interpreted as a conservative description.
    """
    circuit = _coerce_circuit(model)
    try:
        circuit.validate()
    except Exception as exc:
        raise AcquisitionError(f"invalid circuit topology: {exc}") from exc

    return AcquisitionResult(
        circuit=circuit,
        dipole_equations=circuit.dipole_equations(),
        inputs=circuit.input_names(),
    )
