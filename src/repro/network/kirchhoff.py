"""Generation of Kirchhoff's implicit equations (KCL and KVL).

The enrichment step of the paper (Section IV.B, Algorithm 1) augments the
explicit dipole equations with the energy-conservation laws implied by the
circuit topology: Kirchhoff's current law at every node (nodal analysis) and
Kirchhoff's voltage law around every fundamental loop (mesh analysis).
"""

from __future__ import annotations

from ..expr.ast import BinaryOp, Constant, Expr, UnaryOp, Variable
from ..expr.equation import KCL, KVL, Equation
from ..expr.simplify import simplify
from .circuit import Circuit
from .components import branch_voltage
from .graph import CircuitGraph


def _sum(terms: list[Expr]) -> Expr:
    if not terms:
        return Constant(0.0)
    total = terms[0]
    for term in terms[1:]:
        total = BinaryOp("+", total, term)
    return total


def nodal_analysis(circuit: Circuit) -> list[Equation]:
    """Return one KCL equation per node: the sum of leaving currents is zero.

    The reference direction of a branch is positive-to-negative, so the branch
    current leaves its positive node and enters its negative node.  The ground
    node's equation is linearly dependent on the others and is skipped.
    """
    equations: list[Equation] = []
    for node in circuit.node_names():
        if node == circuit.ground:
            continue
        terms: list[Expr] = []
        for branch in circuit.branches_at(node):
            current = Variable(branch.current_variable())
            if branch.positive == node:
                terms.append(current)
            else:
                terms.append(UnaryOp("-", current))
        if not terms:
            continue
        equations.append(
            Equation(
                simplify(_sum(terms)),
                Constant(0.0),
                kind=KCL,
                name=f"kcl:{node}",
            )
        )
    return equations


def mesh_analysis(circuit: Circuit) -> list[Equation]:
    """Return one KVL equation per fundamental loop of the circuit graph.

    Each equation states that the oriented sum of branch voltages
    ``V(p) - V(n)`` around the loop is zero.  Written over node potentials
    these relations are tautological; they are generated anyway because the
    enrichment step of the paper performs both nodal *and* mesh analysis, and
    the solved forms they produce give the assemble step extra defining
    equations to choose from.
    """
    graph = CircuitGraph(circuit)
    equations: list[Equation] = []
    for loop in graph.fundamental_loops():
        terms: list[Expr] = []
        for edge in loop.edges:
            branch = circuit.branch(edge.branch)
            voltage = branch_voltage(branch.positive, branch.negative, circuit.ground)
            if edge.forward:
                terms.append(voltage)
            else:
                terms.append(UnaryOp("-", voltage))
        equations.append(
            Equation(
                simplify(_sum(terms)),
                Constant(0.0),
                kind=KVL,
                name=f"kvl:{loop.chord}",
            )
        )
    return equations


def kirchhoff_equations(circuit: Circuit) -> list[Equation]:
    """Return the full set of implicit equations (KCL, then KVL)."""
    return nodal_analysis(circuit) + mesh_analysis(circuit)
