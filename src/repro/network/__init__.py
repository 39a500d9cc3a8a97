"""Electrical-network substrate: circuits, components, topology and MNA."""

from .circuit import (
    Branch,
    Circuit,
    Node,
    canonical_quantity,
    count_state_variables,
)
from .components import (
    VCCS,
    VCVS,
    Capacitor,
    Component,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageControlledCurrentSource,
    VoltageControlledVoltageSource,
    VoltageSource,
    branch_current,
    branch_voltage,
    node_potential,
)
from .graph import CircuitGraph, FundamentalLoop, LoopEdge
from .kirchhoff import kirchhoff_equations, mesh_analysis, nodal_analysis
from .mna import MnaIndex, MnaSystem

__all__ = [
    "Branch",
    "Circuit",
    "CircuitGraph",
    "Capacitor",
    "Component",
    "CurrentSource",
    "FundamentalLoop",
    "Inductor",
    "LoopEdge",
    "MnaIndex",
    "MnaSystem",
    "Node",
    "Resistor",
    "canonical_quantity",
    "VCCS",
    "VCVS",
    "VoltageControlledCurrentSource",
    "VoltageControlledVoltageSource",
    "VoltageSource",
    "branch_current",
    "branch_voltage",
    "count_state_variables",
    "kirchhoff_equations",
    "mesh_analysis",
    "nodal_analysis",
    "node_potential",
]
