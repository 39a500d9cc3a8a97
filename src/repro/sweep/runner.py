"""Batch execution of sweep scenarios: vectorized, cached, and chunkable.

:class:`SweepRunner` is the engine that turns a scenario list into ensemble
waveforms:

1. every scenario's circuit is built (``factory(**scenario.params)``) and
   abstracted into a signal-flow model (:func:`abstract_chunk`): the first
   scenario of each topology through the full abstraction flow, recorded as
   a tape, the others all at once through that tape, or through the full
   flow when the tape sends them back;
2. scenarios whose models are structurally identical are grouped, and each
   group becomes one vectorized NumPy batch model
   (:mod:`repro.core.codegen.numpy_backend`) that advances *all* of the
   group's scenarios per timestep — per-scenario coefficients live in arrays,
   so a 256-point Monte-Carlo costs one generated class and one Python-level
   loop instead of 256;
3. compiled classes are reused through the source-digest cache
   (:mod:`repro.core.codegen.cache`);
4. the campaign executor (:mod:`repro.sweep.executor`) chunks the scenario
   list across ``multiprocessing`` workers (serial fallback when the
   platform or the payload does not cooperate) and hands the outcomes back
   in scenario order, so multiprocess and serial runs are bit-identical.

The scalar ``backend="python"`` path runs each scenario through the
generated per-scenario ``step`` class instead; it exists as the equivalence
baseline and as a fallback for models the vectorized renderer cannot batch.
"""

from __future__ import annotations

import hashlib
import time as _time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..core.codegen.native_backend import NativeGenerator, toolchain_error
from ..core.codegen.numpy_backend import BatchColumns, NumpyGenerator, structure_signature
from ..core.codegen.python_backend import compile_model_cached
from ..core.flow import AbstractionFlow, ReplayTape, TapedModel
from ..core.signalflow import SignalFlowModel
from ..errors import SimulationError, StoreError
from ..metrics.nrmse import compare_traces
from ..network.circuit import Circuit
from ..obs.tracer import TRACER
from ..sim.runners import run_reference_model
from ..sim.steps import resolve_steps
from ..sim.trace import Trace
from ..store import RunStore, fingerprint
from .executor import CampaignExecutor, SweepError
from .results import SweepResult
from .spec import Scenario, SweepSpec

Stimuli = Mapping[str, Callable[[float], float]]


@dataclass
class _ScenarioRows:
    """One scenario's outcome: its waveform rows plus what the result sums."""

    rows: dict[str, np.ndarray]
    signature: "str | None"
    #: Seconds of abstraction and simulation (0 for a loaded scenario).
    abstract: float = 0.0
    simulate: float = 0.0


@dataclass
class SweepConfig:
    """The sweep engine: the picklable recipe shipped to every worker.

    One scenario is one job of :mod:`repro.sweep.executor`; its outcome is
    the scenario's waveform rows.
    """

    ENGINE = "sweep"
    UNITS = "sweep scenarios"

    factory: Callable[..., Circuit]
    outputs: list[str]
    timestep: float
    duration: float
    stimuli: dict[str, Callable[[float], float]]
    backend: str = "numpy"

    @property
    def steps(self) -> int:
        """Samples per scenario; an off-grid duration raises :class:`SweepError`."""
        try:
            return resolve_steps(self.duration, self.timestep)
        except SimulationError as exc:
            raise SweepError(str(exc)) from exc

    def store_inputs(self, scenario: Scenario) -> dict:
        """The full-input payload whose digest addresses one sweep scenario.

        Covers everything that determines the scenario's waveforms: the
        circuit factory identity, its parameters, the recorded outputs, the
        execution grid (duration/timestep), the backend and the resolved
        stimulus set.  Scenario position/label are deliberately excluded —
        identical work shares a record no matter where it sits in the
        expansion.
        """
        factory, stimuli = self._fingerprints
        if scenario.stimuli is not None:
            stimuli = fingerprint(dict(scenario.stimuli))
        return {
            "engine": "sweep",
            "factory": factory,
            "outputs": list(self.outputs),
            "timestep": self.timestep,
            "duration": self.duration,
            "method": "backward_euler",  # a removed option, kept so stored keys stay valid
            "backend": self.backend,
            # fingerprint() also canonicalizes numpy-typed parameter values
            # (np.float32/np.int64 from array-built axes are not JSON types).
            "params": [
                [name, fingerprint(value)]
                for name, value in sorted(scenario.params.items())
            ],
            "stimuli": stimuli,
        }

    @cached_property
    def _fingerprints(self) -> tuple[object, object]:
        """The factory's and the default stimuli's key fingerprint, taken
        once per run (each run binds a fresh config) instead of per job."""
        return fingerprint(self.factory), fingerprint(dict(self.stimuli))

    def execute(
        self, scenarios: Sequence[Scenario], pending: Sequence[int]
    ) -> Iterator[tuple[int, _ScenarioRows]]:
        """Abstract, group and simulate the ``pending`` scenarios of a chunk.

        With the ``numpy``/``native`` backends every group of structurally
        identical models is simulated as one vectorized batch, so the whole
        group finishes — and is yielded — at once; the scalar ``python``
        backend yields scenario by scenario.
        """
        start = _time.perf_counter()
        abstracted = abstract_chunk(
            (self.factory(**scenarios[position].params) for position in pending),
            self.outputs,
            self.timestep,
        )
        models = dict(zip(pending, abstracted))
        abstract = _time.perf_counter() - start
        TRACER.complete(
            "sweep.abstract", start, abstract, "sweep", scenarios=len(pending)
        )
        TRACER.add("sweep.scenarios", float(len(pending)))

        # A tape's models share its template's structure.
        taped: dict[int, tuple] = {}
        groups: dict[object, tuple[tuple, list[int]]] = {}
        for position in pending:
            model = models[position]
            if isinstance(model, TapedModel):
                signature = taped.get(id(model.tape))
                if signature is None:
                    signature = taped[id(model.tape)] = structure_signature(model.tape.template)
            else:
                signature = structure_signature(model)
            group = position if self.backend == "python" else signature
            groups.setdefault(group, (signature, []))[1].append(position)
        start = _time.perf_counter()
        for signature, positions in groups.values():
            began = _time.perf_counter()
            matrices = _simulate_group(
                self, [scenarios[i] for i in positions], [models[i] for i in positions]
            )
            share = (_time.perf_counter() - began) / len(positions)
            digest = _signature_digest(signature)
            for row, position in enumerate(positions):
                rows = {name: matrix[row] for name, matrix in matrices.items()}
                yield position, _ScenarioRows(
                    rows, digest, abstract / len(pending), share
                )
        TRACER.complete(
            "sweep.simulate",
            start,
            _time.perf_counter() - start,
            "sweep",
            scenarios=len(pending),
        )

    def encode(self, outcome: _ScenarioRows) -> dict:
        """The store record of one scenario's waveform rows."""
        return {
            "steps": self.steps,
            "signature": outcome.signature,
            # JSON objects are written key-sorted; the model's output order
            # must survive explicitly or a fully-resumed run would assemble
            # its ensemble in a different column order than a fresh one.
            "order": list(outcome.rows),
            "outputs": outcome.rows,
        }

    def decode(self, record: dict) -> _ScenarioRows:
        """Rebuild a stored scenario's rows, validating their shape."""
        stored = record["outputs"]
        rows = {
            name: np.asarray(stored[name], dtype=float)
            for name in record.get("order") or list(stored)
        }
        if any(row.shape != (self.steps,) for row in rows.values()):
            raise ValueError(f"rows are not {self.steps} samples long")
        TRACER.add("sweep.loaded")
        return _ScenarioRows(rows, record.get("signature"))

    @staticmethod
    def latency(outcome: _ScenarioRows) -> None:
        """No per-scenario latency: scenarios are simulated jointly."""
        return None


def _signature_digest(signature: tuple) -> str:
    """A short stable digest of a structure signature (store-record form)."""
    return hashlib.sha256(repr(signature).encode("utf-8")).hexdigest()[:16]


def topology_key(circuit: Circuit, outputs: Sequence[str]) -> tuple:
    """What :func:`abstract_chunk` groups circuits by, read off the circuit
    before abstraction: its ground, nodes and, per branch, name, terminals,
    component kind, control nodes and input name, plus the outputs.
    Parameter values are left out."""
    branches = tuple(
        (
            name,
            branch.positive,
            branch.negative,
            type(branch.component).__name__,
            getattr(branch.component, "control_positive", None),
            getattr(branch.component, "control_negative", None),
            branch.component.input_name(),
        )
        for name, branch in circuit.branches.items()
    )
    return (circuit.ground, tuple(circuit.nodes), branches, tuple(outputs))


def abstract_chunk(
    circuits: Iterable[Circuit], outputs: Sequence[str], timestep: float
) -> "list[SignalFlowModel | TapedModel]":
    """The full flow's model of each of ``circuits`` for ``outputs``, in order.

    Circuits are grouped by :func:`topology_key`.  A topology with one
    circuit takes the full :class:`~repro.core.flow.AbstractionFlow`.  For
    one with more, the full flow of its first circuit is recorded as a tape
    (``flow.tapes``, :meth:`~repro.core.flow.ReplayTape.record`), whose
    template is that circuit's model, and each later circuit the tape admits
    is a :class:`~repro.core.flow.TapedModel` (a ``flow.replays``).  Those
    it sends back (``flow.tape_misses``) take the full flow, as does the
    whole topology when its recording raises or escapes.  An error is
    raised after every earlier circuit has been abstracted, so it is the
    one the first failing circuit raises.
    """
    flow = AbstractionFlow(timestep)
    built: list[Circuit] = []
    groups: dict[tuple, list[int]] = {}
    failure = None
    try:
        for circuit in circuits:
            groups.setdefault(topology_key(circuit, outputs), []).append(len(built))
            built.append(circuit)
    except Exception as error:  # raised once the circuits before it are done
        failure = error
    models: list = [None] * len(built)
    for first, *later in groups.values():
        tape = ReplayTape.record(flow, built[first], outputs) if later else None
        if tape is None:
            continue
        TRACER.add("flow.tapes")
        models[first] = tape.template
        for index, taped in zip(later, tape.evaluate([built[index] for index in later])):
            models[index] = taped
            TRACER.add("flow.tape_misses" if taped is None else "flow.replays")
    for index, model in enumerate(models):
        if model is None:
            models[index] = flow.abstract(built[index], outputs).model
    if failure is not None:
        raise failure
    return models


def _scenario_stimuli(config: SweepConfig, scenario: Scenario) -> Stimuli:
    return scenario.stimuli if scenario.stimuli is not None else config.stimuli


def _input_columns(
    config: SweepConfig,
    scenarios: Sequence[Scenario],
    input_names: Sequence[str],
):
    """Per-input evaluators: a shared callable, or a per-scenario array builder."""
    columns = []
    for name in input_names:
        waveforms = []
        for scenario in scenarios:
            stimuli = _scenario_stimuli(config, scenario)
            try:
                waveforms.append(stimuli[name])
            except KeyError as exc:
                raise SweepError(
                    f"scenario {scenario.describe()} provides no stimulus for "
                    f"input {name!r}"
                ) from exc
        first = waveforms[0]
        if all(waveform == first for waveform in waveforms[1:]):
            columns.append(first)
        else:
            columns.append(
                lambda t, _waveforms=waveforms: np.array(
                    [waveform(t) for waveform in _waveforms]
                )
            )
    return columns


def _model(model: "SignalFlowModel | TapedModel") -> SignalFlowModel:
    return model.model() if isinstance(model, TapedModel) else model


def _batch(
    models: "Sequence[SignalFlowModel | TapedModel]",
) -> "Sequence[SignalFlowModel] | BatchColumns":
    """A structure group as ``generate_batch`` takes it: the models, or,
    when a tape admitted any, the first one's model as the template and
    every scenario's constants."""
    if not any(isinstance(model, TapedModel) for model in models):
        return models
    return BatchColumns.stack(
        _model(models[0]),
        [model.values if isinstance(model, TapedModel) else model.constants() for model in models],
        [model.initial_state for model in models],
    )


def _simulate_group(
    config: SweepConfig,
    scenarios: Sequence[Scenario],
    models: "Sequence[SignalFlowModel | TapedModel]",
) -> dict[str, np.ndarray]:
    """Simulate one structure group into scenario-major output matrices.

    The ``numpy``/``native`` backends advance the whole group per timestep
    through one vectorized batch model; the scalar ``python`` backend (one
    scenario per group) runs the generated per-scenario ``step`` class.
    """
    if config.backend == "python":
        instance = compile_model_cached(_model(models[0]))()
        step = instance.step
    else:
        generator = NativeGenerator() if config.backend == "native" else NumpyGenerator()
        instance = generator.generate_batch(_batch(models)).instantiate()
        step = instance.step_batch
    steps = config.steps
    dt = float(config.timestep)
    output_names = list(instance.OUTPUTS)
    single_output = len(output_names) == 1
    columns = _input_columns(config, scenarios, instance.INPUTS)
    # Record step-major (contiguous row writes), transpose to scenario-major
    # once; the scalar ``step`` returns floats, recorded into 1-D rows.
    shape = (steps,) if config.backend == "python" else (steps, len(scenarios))
    recorded = {name: np.zeros(shape) for name in output_names}
    for index in range(steps):
        now = (index + 1) * dt
        result = step(*[column(now) for column in columns], now)
        if single_output:
            recorded[output_names[0]][index] = result
        else:
            for name, values in zip(output_names, result):
                recorded[name][index] = values
    return {
        name: np.ascontiguousarray(matrix.T).reshape(len(scenarios), steps)
        for name, matrix in recorded.items()
    }


class SweepRunner:
    """Expand a spec, simulate every scenario, aggregate into a result.

    Parameters
    ----------
    factory:
        Circuit factory called with each scenario's parameters
        (``factory(**scenario.params)``).  Must be picklable for
        multiprocess runs (a module-level function, e.g.
        :func:`repro.circuits.build_rc_filter`).
    outputs:
        Output(s) of interest handed to the abstraction flow (``"out"`` or
        ``["out", "V(n1)"]``).
    stimuli:
        Default stimulus callables keyed by input name; individual scenarios
        may override them.
    timestep:
        Fixed execution timestep of the generated models.
    backend:
        ``"numpy"`` (vectorized batches, the default), ``"native"``
        (cffi-compiled C batch kernels; needs cffi and a C compiler) or
        ``"python"`` (per-scenario scalar classes — the equivalence
        baseline).
    workers:
        Number of ``multiprocessing`` workers; ``1`` runs serially.  When a
        pool cannot be used (unpicklable payload, missing ``fork``), the
        runner falls back to the serial path and records it in the result.
    store:
        A campaign directory (or :class:`~repro.store.RunStore`) into which
        every completed scenario's waveforms are committed atomically as
        they are produced.
    resume:
        Load scenarios already committed to ``store`` instead of
        re-executing them (requires ``store``).  The calling process loads
        them before any fan-out, and only the missing scenarios are split
        across workers; with none missing, no worker starts.  Resumed
        ensembles are bit-identical to uninterrupted runs.
    trace:
        Collect per-worker telemetry and attach a merged
        :class:`~repro.obs.telemetry.TelemetryReport` to the result.
        ``None`` (the default) follows the process-wide tracing switch
        (:func:`repro.obs.enable_tracing`).
    progress:
        Render a live throttled progress line on stderr.  ``None`` (the
        default) shows it only when stderr is a terminal.
    """

    def __init__(
        self,
        factory: Callable[..., Circuit],
        outputs: "str | list[str]",
        stimuli: Stimuli,
        timestep: float,
        backend: str = "numpy",
        workers: int = 1,
        store: "RunStore | str | None" = None,
        resume: bool = False,
        trace: "bool | None" = None,
        progress: "bool | None" = None,
    ) -> None:
        if timestep <= 0.0:
            raise ValueError("timestep must be positive")
        if backend not in ("numpy", "native", "python"):
            raise SweepError(
                f"unknown sweep backend {backend!r}; "
                "use 'numpy', 'native' or 'python'"
            )
        if backend == "native":
            missing = toolchain_error()
            if missing:
                raise SweepError(f"native sweep backend unavailable: {missing}")
        #: The engine recipe; each run binds its own duration.
        self.engine = SweepConfig(
            factory=factory,
            outputs=[outputs] if isinstance(outputs, str) else list(outputs),
            timestep=float(timestep),
            duration=0.0,
            stimuli=dict(stimuli),
            backend=backend,
        )
        self.executor = CampaignExecutor(
            workers=workers, store=store, resume=resume, trace=trace, progress=progress
        )

    # -- execution ---------------------------------------------------------------------
    def run(
        self,
        spec: "SweepSpec | Sequence[Scenario]",
        duration: float,
        reference: bool = False,
    ) -> SweepResult:
        """Simulate every scenario of ``spec`` for ``duration`` seconds.

        With ``reference=True`` every scenario is additionally simulated on
        the reference AMS engine and the per-scenario NRMSE is recorded
        (slow — the reference engine is the paper's golden baseline, not a
        batch target).
        """
        scenarios = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
        if not scenarios:
            raise SweepError("the sweep spec expanded to zero scenarios")
        config = replace(self.engine, duration=float(duration))
        steps = config.steps
        campaign = self.executor.run(config, scenarios)
        outcomes: list[_ScenarioRows] = campaign.outcomes
        try:
            outputs = {
                name: np.stack([outcome.rows[name] for outcome in outcomes])
                for name in outcomes[0].rows
            }
        except KeyError as missing:
            raise StoreError(f"a stored scenario lacks output {missing}") from missing
        result = SweepResult(
            scenarios=scenarios,
            times=np.arange(1, steps + 1) * config.timestep,
            outputs=outputs,
            backend=config.backend,
            workers=campaign.workers,
            timings={
                "abstract": sum(outcome.abstract for outcome in outcomes),
                "simulate": sum(outcome.simulate for outcome in outcomes),
                "wall": campaign.wall,
            },
            structure_groups=len(
                {outcome.signature for outcome in outcomes if outcome.signature}
            ),
            executed=campaign.executed,
            telemetry=campaign.telemetry,
        )
        if reference:
            result.nrmse = self._reference_nrmse(config, result)
        return result

    # -- reference comparison ----------------------------------------------------------
    def _reference_nrmse(
        self,
        config: SweepConfig,
        result: SweepResult,
    ) -> dict[str, np.ndarray]:
        """Per-scenario NRMSE of every output versus the reference AMS engine."""
        names = result.output_names()
        errors = {name: np.zeros(result.n_scenarios) for name in names}
        for index, scenario in enumerate(result.scenarios):
            circuit = config.factory(**scenario.params)
            reference = run_reference_model(
                circuit,
                _scenario_stimuli(config, scenario),
                config.duration,
                config.timestep,
                record=names,
            )
            for name in names:
                measured = Trace(name)
                for time, value in zip(result.times, result.outputs[name][index]):
                    measured.append(float(time), float(value))
                errors[name][index] = compare_traces(reference[name], measured)
        return errors
