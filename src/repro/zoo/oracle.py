"""Differential oracle and greedy shrinker for the circuit-zoo fuzz harness.

The oracle takes one Verilog-AMS netlist through the whole pipeline — parse,
build, abstract (the abstraction checks its model with
:meth:`~repro.core.signalflow.SignalFlowModel.validate`) — lints the netlist,
and then runs the abstracted model on **every** engine the repository ships: the compiled scalar recursion (``python``), the vectorised
batch backend (``numpy``), the discrete-event integration (``de``), the TDF
cluster (``tdf``), and the conservative MNA solver on the *unabstracted*
circuit (``mna``, backward-Euler so its discretisation matches the
abstraction).  Every pair of output waveforms must agree to
:attr:`OracleConfig.tolerance` NRMSE; any violation — or any exception from
any stage — is a :class:`OracleVerdict` failure.

When a generated netlist fails, the greedy :func:`shrink` loop minimises it
while it still fails: drop components, fold conditional/parameterised
spellings to their plain forms, round values.  :func:`write_reproducer`
renders the minimal case (with full provenance in a header comment) into a
corpus directory so the failure becomes a permanent regression test.

``engine_overrides`` lets tests swap any engine for a deliberately broken
one, which is how the shrinker itself is tested without breaking a real
engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from ..core import AbstractionFlow
from ..core.codegen import NativeGenerator, NumpyGenerator
from ..errors import ReproError
from ..metrics import compare_traces
from ..network.mna import BACKWARD_EULER
from ..sim import (
    ElnModel,
    SineWave,
    Trace,
    TraceSet,
    resolve_steps,
    run_de_model,
    run_python_model,
    run_tdf_model,
)
from ..vams import parse_module, to_circuit
from .generate import (
    ZooNetlist,
    drop_component,
    plainify_component,
    render,
    round_component,
)

#: Stages a verdict can fail at: the frontend (lex/parse/build/abstract), the
#: pre-execution lint of the netlist, a single engine raising, or the engines
#: disagreeing beyond tolerance.
FRONTEND = "frontend"
LINT = "lint"
ENGINE = "engine"
AGREEMENT = "agreement"

#: An engine runner: ``(model, circuit, stimuli, config) -> TraceSet`` with
#: the output waveform recorded under the model's output quantity.
EngineRunner = Callable[..., TraceSet]


@dataclass(frozen=True)
class OracleConfig:
    """Differential-run parameters shared by the CLI, tests, and the shrinker."""

    timestep: float = 50e-9
    duration: float = 100e-6
    tolerance: float = 1e-9
    engines: tuple[str, ...] = ("python", "numpy", "de", "tdf", "mna")

    def __post_init__(self) -> None:
        if self.timestep <= 0.0 or self.duration <= 0.0:
            raise ValueError("oracle timestep and duration must be positive")
        if self.tolerance <= 0.0:
            raise ValueError("the oracle tolerance must be positive")
        unknown = set(self.engines) - set(ENGINE_RUNNERS)
        if unknown:
            raise ValueError(f"unknown oracle engines: {', '.join(sorted(unknown))}")
        if len(self.engines) < 2:
            raise ValueError("a differential oracle needs at least two engines")


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one differential run.

    ``ok`` summarises; on failure ``stage`` names the pipeline layer (one of
    :data:`FRONTEND`, :data:`LINT`, :data:`ENGINE`, :data:`AGREEMENT`),
    ``detail`` is the human-readable cause, and — for agreement failures —
    ``worst_pair`` and ``worst_error`` identify the most-disagreeing engine
    pair.  ``errors`` records the full pairwise NRMSE matrix whenever all
    engines completed.
    """

    ok: bool
    stage: str | None = None
    detail: str = ""
    worst_pair: tuple[str, str] | None = None
    worst_error: float = 0.0
    errors: Mapping[tuple[str, str], float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        """One line suitable for a log or a reproducer header."""
        if self.ok:
            return f"ok (worst pairwise NRMSE {self.worst_error:.3e})"
        if self.stage == AGREEMENT and self.worst_pair is not None:
            first, second = self.worst_pair
            return (
                f"{first} and {second} disagree: NRMSE {self.worst_error:.3e}"
            )
        return f"{self.stage}: {self.detail}"


# -- engine runners ------------------------------------------------------------------
def _sine_stimuli(inputs: Iterable[str]) -> dict[str, SineWave]:
    """The matrix stimuli: one sine per input, distinct frequencies."""
    return {
        name: SineWave(amplitude=1.0, frequency=10e3 * (index + 1))
        for index, name in enumerate(inputs)
    }


def _run_batch_of_one(instance, stimuli, config: OracleConfig) -> TraceSet:
    """Drive an instantiated batch artefact (width 1) and record a TraceSet."""
    waveforms = [stimuli[name] for name in instance.INPUTS]
    steps = resolve_steps(config.duration, float(instance.TIMESTEP))
    traces = TraceSet({name: Trace(name) for name in instance.OUTPUTS})
    single = len(instance.OUTPUTS) == 1
    for index in range(steps):
        now = (index + 1) * float(instance.TIMESTEP)
        result = instance.step_batch(*[wave(now) for wave in waveforms], now)
        values = (result,) if single else tuple(result)
        for name, value in zip(instance.OUTPUTS, values):
            traces[name].append(now, float(np.ravel(value)[0]))
    return traces


def _run_numpy(model, circuit, stimuli, config: OracleConfig) -> TraceSet:
    """A batch-of-one through the vectorised backend, as a TraceSet."""
    instance = NumpyGenerator().generate_batch([model]).instantiate()
    return _run_batch_of_one(instance, stimuli, config)


def _run_native(model, circuit, stimuli, config: OracleConfig) -> TraceSet:
    """A batch-of-one through the cffi-compiled C kernel, as a TraceSet."""
    instance = NativeGenerator().generate_batch([model]).instantiate()
    return _run_batch_of_one(instance, stimuli, config)


def _run_python(model, circuit, stimuli, config: OracleConfig) -> TraceSet:
    return run_python_model(model, stimuli, config.duration)


def _run_de(model, circuit, stimuli, config: OracleConfig) -> TraceSet:
    return run_de_model(model, stimuli, config.duration)


def _run_tdf(model, circuit, stimuli, config: OracleConfig) -> TraceSet:
    return run_tdf_model(model, stimuli, config.duration)


def _run_mna(model, circuit, stimuli, config: OracleConfig) -> TraceSet:
    # Backward Euler, not the ELN default trapezoidal: the oracle compares
    # against backward-Euler abstractions, and mixing discretisations would
    # bury real defects under O(dt) method error.
    eln = ElnModel(circuit, config.timestep, method=BACKWARD_EULER)
    return eln.run(stimuli, config.duration, list(model.outputs))


ENGINE_RUNNERS: dict[str, EngineRunner] = {
    "python": _run_python,
    "numpy": _run_numpy,
    "native": _run_native,
    "de": _run_de,
    "tdf": _run_tdf,
    "mna": _run_mna,
}


# -- the oracle ----------------------------------------------------------------------
def check_source(
    source: str,
    config: "OracleConfig | None" = None,
    engine_overrides: "Mapping[str, EngineRunner] | None" = None,
    output: str = "out",
) -> OracleVerdict:
    """Differentially check one Verilog-AMS source string across all engines."""
    config = config or OracleConfig()
    try:
        module = parse_module(source)
        circuit = to_circuit(module)
        model = AbstractionFlow(config.timestep).abstract(
            circuit, output, name=module.name
        ).model
    except ReproError as exc:
        return OracleVerdict(
            ok=False, stage=FRONTEND, detail=f"{type(exc).__name__}: {exc}"
        )

    # Pre-execution static analysis: a netlist that lints fatal must not reach
    # the engines — any runtime-clean result would then be a lint/runtime
    # disagreement worth a reproducer.  The abstracted model needs no lint:
    # the abstraction already checked it with SignalFlowModel.validate().
    from ..lint import lint_module

    lint = lint_module(module, file=f"<{module.name}>")
    if not lint.ok:
        first = lint.errors()[0]
        return OracleVerdict(
            ok=False,
            stage=LINT,
            detail=f"{first.rule}: {first.message}",
        )

    stimuli = _sine_stimuli(model.inputs)
    quantity = model.outputs[0]

    waveforms: dict[str, Trace] = {}
    for engine in config.engines:
        runner = ENGINE_RUNNERS[engine]
        if engine_overrides and engine in engine_overrides:
            runner = engine_overrides[engine]
        try:
            traces = runner(model, circuit, stimuli, config)
            waveforms[engine] = traces[quantity]
        except (ReproError, ValueError, KeyError, FloatingPointError) as exc:
            return OracleVerdict(
                ok=False,
                stage=ENGINE,
                detail=f"engine {engine!r} failed with {type(exc).__name__}: {exc}",
            )

    errors: dict[tuple[str, str], float] = {}
    for first, second in itertools.combinations(config.engines, 2):
        errors[(first, second)] = compare_traces(waveforms[first], waveforms[second])
    worst_pair = max(errors, key=errors.__getitem__)
    worst_error = errors[worst_pair]
    if worst_error > config.tolerance:
        return OracleVerdict(
            ok=False,
            stage=AGREEMENT,
            detail=(
                f"{worst_pair[0]} and {worst_pair[1]} disagree beyond "
                f"{config.tolerance:g} (NRMSE {worst_error:.3e})"
            ),
            worst_pair=worst_pair,
            worst_error=worst_error,
            errors=errors,
        )
    return OracleVerdict(
        ok=True, worst_pair=worst_pair, worst_error=worst_error, errors=errors
    )


def check_netlist(
    netlist: ZooNetlist,
    config: "OracleConfig | None" = None,
    engine_overrides: "Mapping[str, EngineRunner] | None" = None,
) -> OracleVerdict:
    """Render and differentially check one structured zoo netlist."""
    return check_source(
        render(netlist),
        config,
        engine_overrides=engine_overrides,
        output=netlist.output,
    )


# -- the shrinker --------------------------------------------------------------------
def _still_fails(verdict: OracleVerdict, original_stage: str) -> bool:
    """Whether a shrink candidate preserves the failure being minimised.

    Frontend failures only count for frontend-stage originals; for engine and
    agreement failures a candidate that stops *parsing* is an invalid shrink
    (it removed the circuit, not the bug), while either failing stage keeps
    the reproducer interesting.
    """
    if verdict.ok:
        return False
    if original_stage == FRONTEND:
        return verdict.stage == FRONTEND
    return verdict.stage in (ENGINE, AGREEMENT)


def shrink(
    netlist: ZooNetlist,
    config: "OracleConfig | None" = None,
    engine_overrides: "Mapping[str, EngineRunner] | None" = None,
    max_checks: int = 400,
) -> tuple[ZooNetlist, OracleVerdict]:
    """Greedily minimise a failing netlist while it keeps failing.

    Three mutation classes, in decreasing order of payoff: drop a whole
    component, rewrite a component in its plainest spelling (fold
    conditionals, inline parameters, drop ``idt``/conductance/SI sugar), and
    round values to one significant digit.  The loop restarts after every
    accepted mutation and stops at a fixed point (or after ``max_checks``
    oracle runs, a safety valve for pathological cascades).

    Returns the minimal netlist and its (still failing) verdict.  Raises
    :class:`ValueError` if the input doesn't fail the oracle in the first
    place — shrinking a passing netlist means the harness lost the defect.
    """
    verdict = check_netlist(netlist, config, engine_overrides)
    if verdict.ok:
        raise ValueError("refusing to shrink a netlist that passes the oracle")
    stage = verdict.stage or AGREEMENT
    checks = 0

    def attempt(candidate: "ZooNetlist | None") -> "OracleVerdict | None":
        nonlocal checks
        if candidate is None or checks >= max_checks:
            return None
        checks += 1
        candidate_verdict = check_netlist(candidate, config, engine_overrides)
        if _still_fails(candidate_verdict, stage):
            return candidate_verdict
        return None

    progress = True
    while progress and checks < max_checks:
        progress = False
        # Pass 1: drop components (largest first reduction).
        for position in range(len(netlist.components) - 1, -1, -1):
            candidate = drop_component(netlist, position)
            candidate_verdict = attempt(candidate)
            if candidate_verdict is not None:
                netlist, verdict = candidate, candidate_verdict
                progress = True
        # Pass 2: simplify spellings.
        for position in range(len(netlist.components)):
            candidate_verdict = attempt(plainify_component(netlist, position))
            if candidate_verdict is not None:
                netlist = plainify_component(netlist, position) or netlist
                verdict = candidate_verdict
                progress = True
        # Pass 3: round values.
        for position in range(len(netlist.components)):
            candidate = round_component(netlist, position)
            candidate_verdict = attempt(candidate)
            if candidate_verdict is not None and candidate is not None:
                netlist, verdict = candidate, candidate_verdict
                progress = True
    return replace(netlist, name=f"{netlist.name}_shrunk"), verdict


def write_reproducer(
    netlist: ZooNetlist,
    verdict: OracleVerdict,
    directory: "str | Path",
) -> Path:
    """Render a (typically shrunk) failing netlist into ``directory``.

    The header comment carries full provenance — campaign seed, case index,
    component count, and the verdict summary — so a promoted reproducer
    documents itself.  Returns the written path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{netlist.name}.va"
    header = (
        "// Shrunk reproducer emitted by the repro.zoo differential oracle.\n"
        f"// provenance: seed={netlist.seed} index={netlist.index} "
        f"components={len(netlist)}\n"
        f"// verdict: {verdict.summary()}\n"
    )
    path.write_text(header + render(netlist), encoding="utf-8")
    return path
