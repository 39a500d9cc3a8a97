"""The abstraction flow's models are byte-identical to a full solve's.

On the numeric path the solve step reads the state set off the solution
matrix and builds and simplifies only the rows the model keeps (its outputs
and state variables).  This pins that shortcut against a reference that
takes the long way: every row through :func:`solve_affine_system`, each
simplified a second time, states collected from every row, then filtered.
The generated Python source and the state list must match exactly.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.circuits import paper_benchmarks
from repro.circuits.rc_filter import DEFAULT_CAPACITANCE, DEFAULT_RESISTANCE, build_rc_filter
from repro.core import AbstractionFlow
from repro.core.codegen import PythonGenerator
from repro.core.signalflow import Assignment, SignalFlowModel
from repro.expr import simplify, solve_affine_system
from repro.vams import parse_module, to_circuit
from repro.zoo import generate_netlist, render, zoo_entries

TIMESTEP = 50e-9
METHODS = ("backward_euler", "trapezoidal")


def _generated_circuit(index: int):
    return to_circuit(parse_module(render(generate_netlist(2016, index))))


def _corpus() -> list[tuple[str, object, str]]:
    """``(label, circuit factory, output)`` for every netlist of the corpus."""
    cases = [(bench.name, bench.build, bench.output) for bench in paper_benchmarks()]
    cases += [(f"zoo-{entry.name}", entry.circuit, entry.output) for entry in zoo_entries()]
    cases += [(f"gen-{index}", partial(_generated_circuit, index), "out") for index in range(30)]
    # RC20 tolerance variants, as drawn by a Monte-Carlo sweep.
    rng = np.random.default_rng(2016)
    for variant in range(8):
        resistance = DEFAULT_RESISTANCE * (1.0 + rng.uniform(-0.05, 0.05))
        capacitance = DEFAULT_CAPACITANCE * (1.0 + rng.uniform(-0.1, 0.1))
        cases.append(
            (f"rc20-mc{variant}", partial(build_rc_filter, 20, resistance, capacitance), "out")
        )
    return cases


CORPUS = _corpus()


def full_solve_model(report) -> SignalFlowModel:
    """The model of ``report`` rebuilt by solving and simplifying every row."""
    assembled, enrichment = report.assembled, report.enrichment
    unknowns = list(assembled.order)
    solved = solve_affine_system(assembled.resolutions, unknowns)
    assignments = [Assignment(target, simplify(solved[target])) for target in unknowns]
    states: set[str] = set()
    for assignment in assignments:
        states |= assignment.expression.previous_values()
    needed = set(assembled.outputs) | states
    return SignalFlowModel(
        name=report.model.name,
        inputs=list(enrichment.inputs),
        outputs=list(assembled.outputs),
        assignments=[a for a in assignments if a.target in needed],
        state_variables=sorted(states),
        timestep=TIMESTEP,
        source=report.model.source,
    )


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("build, output", [case[1:] for case in CORPUS], ids=[case[0] for case in CORPUS])
def test_model_matches_full_solve(method, build, output):
    report = AbstractionFlow(TIMESTEP, method=method).abstract(build(), output)
    reference = full_solve_model(report)
    generator = PythonGenerator()
    assert report.model.state_variables == reference.state_variables
    assert generator.generate(report.model).source == generator.generate(reference).source
