"""Step 2 — Enrichment (paper Section IV.B, Algorithm 1).

Starting from the dipole equations and the topology graph produced by the
acquisition step, enrichment:

1. applies nodal analysis (Kirchhoff current law at every node) and mesh
   analysis (Kirchhoff voltage law around every fundamental loop), adding the
   implicit energy-conservation equations to the table;
2. discretises every ``ddt``/``idt`` operator against the target timestep, so
   that the remaining pipeline works on purely algebraic relations between
   instantaneous quantities, previous-step values and inputs;
3. re-solves every equation for every unknown term it contains, inserting the
   solved forms into the multimap and linking them to their origin so they
   form one equivalence class of linearly dependent relations.

The paper quotes a worst-case cost of O(|N|²) + O(|N|³) for the two Kirchhoff
analyses and O(|B|²) for the solving loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import EnrichmentError
from ..expr.ast import Variable
from ..expr.discretize import Discretizer
from ..expr.equation import DERIVED, Equation
from ..errors import UnsolvableEquationError
from ..network.kirchhoff import mesh_analysis, nodal_analysis
from .acquisition import AcquisitionResult
from .table import EquationTable


def is_unknown(name: str) -> bool:
    """Whether ``name`` denotes a network unknown (node potential or branch flow)."""
    return name.startswith("V(") or name.startswith("I(")


@dataclass
class EnrichmentResult:
    """Output of the enrichment step."""

    table: EquationTable
    kcl_equations: list[Equation]
    kvl_equations: list[Equation]
    integrator_updates: dict[str, "Equation"] = field(default_factory=dict)
    discretizer: Discretizer | None = None
    unknowns: list[str] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)
    solved_count: int = 0

    def statistics(self) -> dict[str, int]:
        """Counts used by the abstraction-cost experiment."""
        return {
            "equations": len(self.table),
            "kcl": len(self.kcl_equations),
            "kvl": len(self.kvl_equations),
            "solved": self.solved_count,
            "unknowns": len(self.unknowns),
        }


def enrich(acquisition: AcquisitionResult, timestep: float) -> EnrichmentResult:
    """Run the enrichment step.

    Parameters
    ----------
    acquisition:
        The result of :func:`repro.core.acquisition.acquire`.
    timestep:
        The fixed timestep the generated model will be executed at; it is
        needed to discretise the analog operators.

    Nodal analysis alone would suffice; the mesh analysis's KVL forms give
    the assemble step additional candidate definitions, as in the paper.
    """
    circuit = acquisition.circuit
    discretizer = Discretizer(timestep)

    kcl = nodal_analysis(circuit)
    kvl = mesh_analysis(circuit)

    source_equations = list(acquisition.dipole_equations) + kcl + kvl

    table = EquationTable()
    integrator_updates: dict[str, Equation] = {}
    discretized: list[Equation] = []
    for equation in source_equations:
        lhs = discretizer.discretize(equation.lhs)
        rhs = discretizer.discretize(equation.rhs)
        for name, update in {**lhs.integrator_updates, **rhs.integrator_updates}.items():
            update_equation = Equation(
                Variable(name), update, kind=DERIVED, name=f"idt:{name}", origin=f"idt:{name}"
            )
            integrator_updates[name] = update_equation
            table.insert(update_equation)
        flattened = Equation(
            lhs.expression,
            rhs.expression,
            kind=equation.kind,
            name=equation.name,
            origin=equation.origin,
        )
        discretized.append(flattened)
        table.insert(flattened)

    solved_count = 0
    unknowns: set[str] = set()
    for equation in discretized:
        terms = sorted(name for name in equation.variables() if is_unknown(name))
        unknowns.update(terms)
        for term in terms:
            try:
                solved = equation.solved_for(term)
            except UnsolvableEquationError:
                continue
            table.insert(solved)
            solved_count += 1

    if solved_count == 0:
        raise EnrichmentError(
            f"no equation of circuit {circuit.name!r} could be solved for any "
            "unknown; the description is degenerate"
        )

    return EnrichmentResult(
        table=table,
        kcl_equations=kcl,
        kvl_equations=kvl,
        integrator_updates=integrator_updates,
        discretizer=discretizer,
        unknowns=sorted(unknowns),
        inputs=list(acquisition.inputs),
        solved_count=solved_count,
    )
