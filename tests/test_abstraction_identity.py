"""The abstraction flow's models are byte-identical to a full solve's.

On the numeric path the solve step reads the state set off the solution
matrix and builds and simplifies only the rows the model keeps (its outputs
and state variables).  This pins that shortcut against a reference that
takes the long way: every row through :func:`solve_affine_system`, each
simplified a second time, states collected from every row, then filtered.
The generated Python source and the state list must match exactly.

The replay gate pins the other shortcut, a sweep's replay of one topology's
recipe (:class:`~repro.core.flow.AbstractionRecipe`): recorded on each
corpus circuit, replayed over scaled and adversarial draws of its values,
every draw must give the full flow's model or fall back to the full flow.

The tape differential test pins the replay over a whole chunk at once
(:class:`~repro.core.flow.ReplayTape`): each draw the tape admits must get
its per-scenario model, and the batch built from the tape's columns must be
the batch of the replayed models.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.circuits import paper_benchmarks
from repro.circuits.rc_filter import DEFAULT_CAPACITANCE, DEFAULT_RESISTANCE, build_rc_filter
from repro.core import AbstractionFlow
from repro.core.codegen import PythonGenerator
from repro.core.codegen import NativeGenerator, NumpyGenerator
from repro.core.flow import AbstractionRecipe, TapedModel
from repro.core.signalflow import Assignment, SignalFlowModel
from repro.errors import ReproError
from repro.expr import simplify, solve_affine_system
from repro.network.circuit import Circuit
from repro.network.components import VCVS
from repro.sweep import MonteCarloSpec
from repro.sweep.runner import RecipeTable, _batch, _model
from repro.vams import parse_module, to_circuit
from repro.zoo import generate_netlist, render, zoo_entries

#: The paper's timestep, and the one the sweep tests run at.
TIMESTEPS = (50e-9, 1e-6)


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
        timestep=report.model.timestep,
        source=report.model.source,
    )


@pytest.mark.parametrize("timestep", TIMESTEPS)
@pytest.mark.parametrize("build, output", [case[1:] for case in CORPUS], ids=[case[0] for case in CORPUS])
def test_model_matches_full_solve(timestep, build, output):
    report = AbstractionFlow(timestep).abstract(build(), output)
    reference = full_solve_model(report)
    generator = PythonGenerator()
    assert report.model.state_variables == reference.state_variables
    assert generator.generate(report.model).source == generator.generate(reference).source


@pytest.mark.parametrize("timestep", TIMESTEPS)
@pytest.mark.parametrize("build, output", [case[1:] for case in CORPUS], ids=[case[0] for case in CORPUS])
def test_recorded_choices_rebuild_the_resolutions(timestep, build, output):
    """Solving each choice's source equation for its term gives the resolution."""
    report = AbstractionFlow(timestep).abstract(build(), output)
    assembled = report.assembled
    written = {
        entry.origin: entry.equation for entry in report.enrichment.table if entry.term is None
    }
    rebuilt = {}
    for name in assembled.order:
        origin, term = assembled.choices[name]
        equation = written[origin]
        rebuilt[name] = equation.rhs if term is None else equation.solved_for(term).rhs
    assert list(assembled.choices) == assembled.order
    assert rebuilt == assembled.resolutions


# -- replay gate -------------------------------------------------------------------------

#: The value attributes of the network components, and those of the gains.
VALUES = ("resistance", "capacitance", "inductance", "dc_value", "gain", "transconductance")
GAINS = ("gain", "transconductance")

#: Scaled draws per corpus circuit and timestep.
SCALED_DRAWS = 3


def _components(circuit):
    return [branch.component for branch in circuit.branches.values()]


def _scale(circuit, factor) -> None:
    """Multiply every component value by a fresh ``factor()``."""
    for component in _components(circuit):
        for attribute in VALUES:
            if hasattr(component, attribute):
                setattr(component, attribute, getattr(component, attribute) * factor())


def _set_all(circuit, attributes, value: float) -> bool:
    """Set each of ``attributes`` a component has to ``value``; whether any was."""
    changed = False
    for component in _components(circuit):
        for attribute in attributes:
            if hasattr(component, attribute):
                setattr(component, attribute, value)
                changed = True
    return changed


def _draws(build, seed: int):
    """``(kind, circuit)`` per draw: the scaled ones, then the adversarial
    ones: every gain and DC value zero, every gain exactly 1 (which the
    simplifier folds away), and every value at an ``extreme`` magnitude."""
    rng = np.random.default_rng(seed)
    for _ in range(SCALED_DRAWS):
        circuit = build()
        _scale(circuit, lambda: rng.uniform(0.5, 2.0))
        yield "scaled", circuit
    for kind, attributes, value in (("zero", (*GAINS, "dc_value"), 0.0), ("unit", GAINS, 1.0)):
        circuit = build()
        if _set_all(circuit, attributes, value):
            yield kind, circuit
    for factor in (1e-150, 1e150):
        circuit = build()
        _scale(circuit, lambda: factor)
        yield "extreme", circuit


def _outcome(produce) -> tuple:
    """The generated source and states of ``produce()``'s model, or its error."""
    try:
        model = produce()
        if model is None:
            return ("fallback",)
        return ("model", PythonGenerator().generate(model).source, model.state_variables)
    except ReproError as error:
        return ("error", type(error).__name__, str(error))


@pytest.mark.parametrize("timestep", TIMESTEPS)
@pytest.mark.parametrize(
    "index, build, output",
    [(index, *case[1:]) for index, case in enumerate(CORPUS)],
    ids=[case[0] for case in CORPUS],
)
def test_replay_gives_the_full_flow_model_or_falls_back(index, timestep, build, output):
    flow = AbstractionFlow(timestep)
    recipe = AbstractionRecipe.record(flow.abstract(build(), output))
    fallbacks = []
    for kind, circuit in _draws(build, seed=index):
        replayed = _outcome(lambda: recipe.replay(circuit))
        if replayed == ("fallback",):
            fallbacks.append(kind)
        else:
            assert replayed == _outcome(lambda: flow.abstract(circuit, output).model), kind
    # Magnitudes beyond the rule's window take the full flow; a Monte-Carlo
    # draw of RC20 never does.
    assert fallbacks.count("extreme") == 2
    if CORPUS[index][0].startswith("rc20-mc"):
        assert "scaled" not in fallbacks


# -- tape differential test --------------------------------------------------------------


def _per_scenario(recipe, flow, circuit, output):
    """What :meth:`RecipeTable.abstract` gives a later circuit: the replay, or the full flow."""
    model = recipe.replay(circuit)
    return model if model is not None else flow.abstract(circuit, output).model


@pytest.mark.parametrize("timestep", TIMESTEPS)
@pytest.mark.parametrize(
    "index, build, output",
    [(index, *case[1:]) for index, case in enumerate(CORPUS)],
    ids=[case[0] for case in CORPUS],
)
def test_tape_admits_only_draws_it_replays_exactly(index, timestep, build, output):
    """All draws of the replay gate as one chunk through the recipe's tape:
    each admitted draw's model is its per-scenario model."""
    flow = AbstractionFlow(timestep)
    recipe = AbstractionRecipe.record(flow.abstract(build(), output))
    tape = recipe.record_tape(build())
    if tape is None:
        # A recipe outside the replay rule replays nothing, so it has no tape.
        assert recipe.replay(build()) is None
        return
    draws = list(_draws(build, seed=index))
    admitted = tape.evaluate([circuit for _, circuit in draws])
    for (kind, circuit), taped in zip(draws, admitted):
        if taped is not None:
            per_scenario = _outcome(lambda: _per_scenario(recipe, flow, circuit, output))
            assert _outcome(taped.model) == per_scenario, kind
    # The window of the replay rule is a guard.
    assert all(taped is None for (kind, _), taped in zip(draws, admitted) if kind == "extreme")


def _rc20_chunk(samples: int = 64) -> list:
    """The circuits of a Monte-Carlo chunk over RC20, as a sweep builds them."""
    scenarios = MonteCarloSpec(
        nominal={"resistance": DEFAULT_RESISTANCE, "capacitance": DEFAULT_CAPACITANCE},
        tolerances={"resistance": 0.05, "capacitance": 0.1},
        samples=samples,
        seed=2016,
    ).expand()
    return [build_rc_filter(20, **scenario.params) for scenario in scenarios]


@pytest.mark.parametrize("generator", [NumpyGenerator, NativeGenerator], ids=["numpy", "native"])
def test_tape_batch_artefacts_equal_the_replayed_models_batch(generator):
    """A Monte-Carlo chunk's batch built from the tape's columns is the batch
    ``generate_batch`` builds from the replayed models, byte for byte."""
    circuits = _rc20_chunk()
    models = RecipeTable(50e-9).abstract_chunk(circuits, ["out"])
    assert all(isinstance(model, TapedModel) for model in models[1:])
    recipes = RecipeTable(50e-9)
    replayed = [recipes.abstract(circuit, ["out"]) for circuit in circuits]
    taped = generator().generate_batch(_batch(models))
    reference = generator().generate_batch(replayed)
    assert taped.code.source == reference.code.source
    assert taped.parameters.tobytes() == reference.parameters.tobytes()
    assert taped.initial_state.tobytes() == reference.initial_state.tobytes()


def _feedback_amplifier(gain: float):
    """A VCVS amplifying ``vin - V(fb)`` with ``fb`` halving its output: the
    assembled system is singular at a gain of exactly -2."""
    circuit = Circuit("feedback")
    circuit.add_voltage_source("in", "gnd", input_signal="vin", name="V1")
    circuit.add(VCVS(gain, control_positive="in", control_negative="fb"), "out", "gnd", name="E1")
    circuit.add_resistor("out", "fb", 1e3, name="R1")
    circuit.add_resistor("fb", "gnd", 1e3, name="R2")
    return circuit


def test_singular_draw_in_a_chunk_takes_its_own_path():
    """One singular system in the stacked solve fails its draw alone: every
    draw gets its per-scenario outcome."""
    flow = AbstractionFlow(50e-9)
    recipe = AbstractionRecipe.record(flow.abstract(_feedback_amplifier(-3.0), "out"))
    tape = recipe.record_tape(_feedback_amplifier(-3.0))
    gains = (-3.5, -2.0, -4.0, -2.5)
    admitted = tape.evaluate([_feedback_amplifier(gain) for gain in gains])
    assert [taped is not None for taped in admitted] == [True, False, True, True]
    singular = _outcome(lambda: recipe.replay(_feedback_amplifier(-2.0)))
    assert singular[0] == "error" and "singular" in singular[2]
    for gain, taped in zip(gains, admitted):
        if taped is not None:
            replayed = _outcome(lambda: recipe.replay(_feedback_amplifier(gain)))
            assert _outcome(taped.model) == replayed


def test_tape_of_equal_values_gives_distinct_draws_their_models():
    """Recorded on nominal RC20, whose stages are all equal, the tape admits
    a draw with distinct stage values only if it passes every guard: narrow
    draws do, wide ones move coefficients of the solution across its zero
    tolerance and are sent back.  Every draw gets its per-scenario model."""
    rng = np.random.default_rng(7)
    draws = []
    for spread in (1.1, 2.0, 1.1, 2.0):
        circuit = build_rc_filter(20)
        _scale(circuit, lambda: rng.uniform(1.0 / spread, spread))
        draws.append(circuit)
    circuits = [build_rc_filter(20), *draws]
    models = RecipeTable(50e-9).abstract_chunk(circuits, ["out"])
    assert [isinstance(model, TapedModel) for model in models[1:]] == [True, False, True, False]
    recipes = RecipeTable(50e-9)
    for model, circuit in zip(models, circuits):
        expected = _outcome(lambda: recipes.abstract(circuit, ["out"]))
        assert _outcome(lambda: _model(model)) == expected
