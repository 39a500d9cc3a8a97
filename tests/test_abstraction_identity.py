"""The abstraction flow's models are byte-identical to a full solve's.

On the numeric path the solve step reads the state set off the solution
matrix and builds and simplifies only the rows the model keeps (its outputs
and state variables).  This pins that shortcut against a reference that
takes the long way: every row through :func:`solve_affine_system`, each
simplified a second time, states collected from every row, then filtered.
The generated Python source and the state list must match exactly.

The tape gate pins the other shortcut, a sweep's recording of one
topology's full flow (:class:`~repro.core.flow.ReplayTape`): recorded on
each corpus circuit, its template must be the plain flow's model, and each
scaled or adversarial draw of its values that the tape admits must get the
full flow's model.  The batch built from the tape's columns must be the
batch of the full flow's models.
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
from repro.core.flow import ReplayTape, TapedModel
from repro.core.signalflow import Assignment, SignalFlowModel
from repro.errors import ReproError
from repro.expr.tape import Traced
from repro.expr import simplify, solve_affine_system
from repro.network.circuit import Circuit
from repro.obs import TRACER, disable_tracing, enable_tracing
from repro.network.components import VCVS
from repro.sweep import MonteCarloSpec
from repro.sweep.runner import _batch, _model, abstract_chunk
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
def test_each_resolution_is_an_entry_of_its_own_class(timestep, build, output):
    """Assemble (Algorithm 2) takes each resolution from the enriched table:
    the right side of an entry defining its name, one equivalence class per
    resolution, and those classes are the used origins."""
    report = AbstractionFlow(timestep).abstract(build(), output)
    assembled = report.assembled
    picked = []
    for name in assembled.order:
        (origin,) = {
            entry.origin
            for entry in report.enrichment.table
            if entry.origin in assembled.used_origins
            and entry.equation.defined_variable() == name
            and entry.equation.rhs == assembled.resolutions[name]
        }
        picked.append(origin)
    assert list(assembled.resolutions) == assembled.order
    assert sorted(picked) == sorted(assembled.used_origins)


# -- tape gate ---------------------------------------------------------------------------

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
    """The generated source, states and constants of ``produce()``'s model,
    or its error."""
    try:
        model = produce()
        return (
            "model",
            PythonGenerator().generate(model).source,
            model.state_variables,
            np.array(model.constants()).tobytes(),
        )
    except ReproError as error:
        return ("error", type(error).__name__, str(error))


@pytest.mark.parametrize("timestep", TIMESTEPS)
@pytest.mark.parametrize("build, output", [case[1:] for case in CORPUS], ids=[case[0] for case in CORPUS])
def test_traced_flow_gives_the_plain_flow_model(timestep, build, output):
    """Every corpus circuit records a tape, whose template is its model."""
    flow = AbstractionFlow(timestep)
    tape = ReplayTape.record(flow, build(), [output])
    assert tape is not None
    assert _outcome(lambda: tape.template) == _outcome(lambda: flow.abstract(build(), output).model)


@pytest.mark.parametrize("timestep", TIMESTEPS)
@pytest.mark.parametrize(
    "index, build, output",
    [(index, *case[1:]) for index, case in enumerate(CORPUS)],
    ids=[case[0] for case in CORPUS],
)
def test_tape_admits_only_draws_the_full_flow_gives(index, timestep, build, output):
    """All draws of a corpus circuit as one chunk through its tape: each
    admitted draw's model is the full flow's."""
    flow = AbstractionFlow(timestep)
    tape = ReplayTape.record(flow, build(), [output])
    draws = list(_draws(build, seed=index))
    admitted = tape.evaluate([circuit for _, circuit in draws])
    for (kind, circuit), taped in zip(draws, admitted):
        if taped is not None:
            assert _outcome(taped.model) == _outcome(lambda: flow.abstract(circuit, output).model), kind


@pytest.mark.parametrize("timestep", TIMESTEPS)
@pytest.mark.parametrize(
    "index, build, output",
    [(index, *case[1:]) for index, case in enumerate(CORPUS)],
    ids=[case[0] for case in CORPUS],
)
def test_chunk_gives_every_draw_the_full_flow_outcome(index, timestep, build, output):
    """A corpus circuit and all its draws as one sweep chunk: admitted or
    sent back, every draw's model is the full flow's, in scenario order, and
    a chunk holding failing draws raises the first one's error."""
    flow = AbstractionFlow(timestep)
    circuits = [build(), *(circuit for _, circuit in _draws(build, seed=index))]
    expected = [_outcome(lambda: flow.abstract(circuit, output).model) for circuit in circuits]
    errors = [outcome for outcome in expected if outcome[0] == "error"]
    if errors:
        with pytest.raises(ReproError) as raised:
            abstract_chunk(circuits, [output], timestep)
        assert ("error", type(raised.value).__name__, str(raised.value)) == errors[0]
    abstracted = [circuit for circuit, outcome in zip(circuits, expected) if outcome[0] == "model"]
    models = abstract_chunk(abstracted, [output], timestep)
    assert [_outcome(lambda: _model(model)) for model in models] == [
        outcome for outcome in expected if outcome[0] == "model"
    ]


def test_a_conditional_gain_records_a_tape_that_admits_its_draws():
    """``cond_gain``'s full flow records a tape, and the tape admits draws
    of its values with the full flow's models."""
    (entry,) = [entry for entry in zoo_entries() if entry.name == "cond_gain"]
    flow = AbstractionFlow(50e-9)
    tape = ReplayTape.record(flow, entry.circuit(), [entry.output])
    draws = [circuit for _, circuit in _draws(entry.circuit, seed=0)]
    admitted = tape.evaluate(draws)
    assert any(taped is not None for taped in admitted)
    for circuit, taped in zip(draws, admitted):
        if taped is not None:
            assert _outcome(taped.model) == _outcome(lambda: flow.abstract(circuit, entry.output).model)


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
def test_tape_batch_artefacts_equal_the_full_flow_models_batch(generator):
    """A Monte-Carlo chunk's batch built from the tape's columns is the batch
    ``generate_batch`` builds from the full flow's models, byte for byte."""
    circuits = _rc20_chunk()
    models = abstract_chunk(circuits, ["out"], 50e-9)
    assert all(isinstance(model, TapedModel) for model in models[1:])
    flow = AbstractionFlow(50e-9)
    taped = generator().generate_batch(_batch(models))
    reference = generator().generate_batch([flow.abstract(circuit, "out").model for circuit in circuits])
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
    draw gets its full flow's outcome."""
    flow = AbstractionFlow(50e-9)
    tape = ReplayTape.record(flow, _feedback_amplifier(-3.0), ["out"])
    gains = (-3.5, -2.0, -4.0, -2.5)
    admitted = tape.evaluate([_feedback_amplifier(gain) for gain in gains])
    assert [taped is not None for taped in admitted] == [True, False, True, True]
    singular = _outcome(lambda: flow.abstract(_feedback_amplifier(-2.0), "out").model)
    assert singular[0] == "error" and "singular" in singular[2]
    for gain, taped in zip(gains, admitted):
        if taped is not None:
            full = _outcome(lambda: flow.abstract(_feedback_amplifier(gain), "out").model)
            assert _outcome(taped.model) == full


def test_a_failing_first_circuit_sends_its_topology_to_the_full_flow():
    """When the first circuit of a topology fails, no tape is recorded and
    each circuit takes the full flow in scenario order: the chunk raises the
    failing circuit's error once every circuit ahead of it is abstracted."""
    chunk = [build_rc_filter(1), *(_feedback_amplifier(gain) for gain in (-2.0, -3.0, -4.0))]
    expected = _outcome(lambda: AbstractionFlow(50e-9).abstract(chunk[1], "out").model)
    enable_tracing(reset=True)
    try:
        with pytest.raises(ReproError) as raised:
            abstract_chunk(chunk, ["out"], 50e-9)
        counters = dict(TRACER.counters)
    finally:
        disable_tracing()
        TRACER.reset()
    assert ("error", type(raised.value).__name__, str(raised.value)) == expected
    assert counters == {"flow.abstractions": 1.0}


def test_an_escaped_recording_sends_its_topology_to_the_full_flow(monkeypatch):
    """A recording whose traced values leave the tape unrecorded gives no
    tape: every circuit of the topology takes the full flow."""
    abstract = AbstractionFlow.abstract

    def escaping(self, model, outputs, name=None, initial_state=None, tape=None):
        report = abstract(self, model, outputs, name, initial_state, tape)
        if tape is not None:
            float(next(value for value in report.model.constants() if type(value) is Traced))
        return report

    monkeypatch.setattr(AbstractionFlow, "abstract", escaping)
    circuits = _rc20_chunk(4)
    enable_tracing(reset=True)
    try:
        models = abstract_chunk(circuits, ["out"], 50e-9)
        counters = dict(TRACER.counters)
    finally:
        disable_tracing()
        TRACER.reset()
    assert not any(isinstance(model, TapedModel) for model in models)
    assert counters == {"flow.abstractions": 5.0}
    flow = AbstractionFlow(50e-9)
    for model, circuit in zip(models, circuits):
        assert _outcome(lambda: model) == _outcome(lambda: flow.abstract(circuit, "out").model)


def test_tape_of_equal_values_gives_distinct_draws_their_models():
    """Recorded on nominal RC20, whose stages are all equal, the tape admits
    a draw with distinct stage values only if it passes every guard: narrow
    draws do, wide ones move coefficients of the solution across its zero
    tolerance and are sent back.  Every draw gets its full flow's model."""
    rng = np.random.default_rng(7)
    draws = []
    for spread in (1.1, 2.0, 1.1, 2.0):
        circuit = build_rc_filter(20)
        _scale(circuit, lambda: rng.uniform(1.0 / spread, spread))
        draws.append(circuit)
    circuits = [build_rc_filter(20), *draws]
    models = abstract_chunk(circuits, ["out"], 50e-9)
    assert [isinstance(model, TapedModel) for model in models[1:]] == [True, False, True, False]
    flow = AbstractionFlow(50e-9)
    for model, circuit in zip(models, circuits):
        expected = _outcome(lambda: flow.abstract(circuit, "out").model)
        assert _outcome(lambda: _model(model)) == expected
