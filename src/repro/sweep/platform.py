"""Platform-scale scenario sweeps: the whole virtual platform as the unit of work.

:class:`~repro.sweep.runner.SweepRunner` batches bare signal-flow models; the
paper's headline claim (Table III), however, is about the *complete* smart
system — MIPS firmware, bus, UART and ADC on top of the discrete-event
kernel, with one analog subsystem plugged in.  This module scales that
configuration out:

* :class:`PlatformScenarioSpec` composes four orthogonal axes into a flat
  scenario list — analog circuit parameters (any
  :class:`~repro.sweep.spec.SweepSpec`: grid, corners, Monte-Carlo), analog
  integration style (``cosim``/``eln``/``tdf``/``de``/``python``), firmware
  variant, and stimulus family;
* :class:`PlatformSweepRunner` fans the scenarios across ``multiprocessing``
  workers through the campaign executor (:mod:`repro.sweep.executor`:
  serial fallback, run store, resume) and runs each one through a fresh
  :class:`~repro.vp.platform.SmartSystemPlatform`, or through a clone of
  its base run when the scenario has a fork time (time-gated faults);
* :class:`PlatformSweepResult` aggregates the
  :class:`~repro.vp.platform.PlatformRunResult` of every scenario into
  Table-III-style per-style summaries — wall-clock time, speed-up versus the
  co-simulation baseline, instruction counts, cross-style NRMSE of the ADC
  sample stream — with markdown/CSV reports.

Scenario outcomes are deterministic: a scenario's software-visible result
(:meth:`PlatformRunResult.fingerprint`) is identical whether it ran in the
serial loop or in a worker process, which is what makes multiprocess platform
sweeps trustworthy for design-space exploration.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..core.flow import AbstractionFlow
from ..core.signalflow import SignalFlowModel
from ..errors import ReproError, SimulationError
from ..metrics.nrmse import nrmse
from ..network.circuit import Circuit, canonical_quantity
from ..obs.telemetry import TelemetryReport
from ..obs.tracer import TRACER
from ..sim.runners import resolve_steps
from ..store import RunStore, fingerprint
from ..vp.platform import ANALOG_STYLES, PlatformRunResult, SmartSystemPlatform
from .executor import CampaignExecutor, SweepError
from .seeds import spawn_seeds
from .spec import Scenario, SweepSpec, _format_value

Stimuli = Mapping[str, Callable[[float], float]]

#: A stimulus family: either a ready-made stimulus mapping, or a factory
#: called with the scenario's seed (for randomized/jittered stimulus sets —
#: the factory runs inside the worker, so multiprocess runs regenerate the
#: exact same waveforms as serial ones).
StimulusFamily = "Stimuli | Callable[[int], Stimuli]"

#: Styles that integrate the *abstracted* signal-flow model (need a model).
ABSTRACTED_STYLES = ("python", "de", "tdf")
#: Styles that solve the conservative circuit directly (need the netlist).
CONSERVATIVE_STYLES = ("eln", "cosim")


@dataclass
class PlatformScenario:
    """One platform configuration: analog point × style × firmware × stimulus."""

    index: int
    label: str
    params: dict[str, float]
    style: str
    firmware: str
    stimulus: str
    seed: int
    origin: str = "platform"

    def analog_key(self) -> tuple:
        """Everything but the integration style — scenarios sharing this key
        simulate the same smart system and should agree on the outcome."""
        return (
            tuple(sorted(self.params.items())),
            self.firmware,
            self.stimulus,
        )

    def describe(self) -> str:
        params = ", ".join(
            f"{name}={_format_value(value)}" for name, value in self.params.items()
        )
        parts = [self.style, f"fw={self.firmware}", f"stim={self.stimulus}"]
        if params:
            parts.append(params)
        return f"[{self.index}] {' '.join(parts)}"

    def prepare_platform(self, platform: SmartSystemPlatform) -> None:
        """Hook called on the fully assembled platform, just before ``run``.

        The base scenario does nothing; subclasses (the fault campaign's
        :class:`~repro.fault.campaign.FaultScenario`) override it to arm
        saboteurs, schedule injections, or otherwise instrument the platform.
        Runs inside the worker process, so overrides must be picklable.
        """

    def fork_time(self) -> "float | None":
        """When this run first departs from its un-instrumented base run.

        ``None`` (the base scenario) runs from scratch.  A time ``t`` is a
        promise about :meth:`prepare_platform`: nothing observable changes
        before ``t``, and injections go through
        :meth:`~repro.vp.platform.SmartSystemPlatform.schedule_injection`.
        The engine then simulates the base run once up to just before ``t``
        and arms this scenario on a clone of it (see
        :meth:`PlatformSweepConfig.execute`).
        """
        return None

    def store_key_extras(self) -> dict:
        """Extra content-key material contributed by scenario subclasses.

        Anything that changes what :meth:`prepare_platform` does to the
        platform MUST be reflected here, or a resumed campaign could load a
        differently-instrumented run's result.  The base scenario
        contributes nothing; the fault campaign's scenario adds the fault
        model, activation time and fault seed.
        """
        return {}


@dataclass
class PlatformScenarioSpec:
    """Cartesian composition of the four platform sweep axes.

    ``parameters`` reuses the signal-flow sweep machinery — any
    :class:`~repro.sweep.spec.SweepSpec` (grid/corners/Monte-Carlo, including
    composites) or an explicit scenario list; ``None`` means a single nominal
    point with the factory's default parameters.  ``firmwares`` maps a
    variant name to its assembly source (``None`` source = the platform's
    default threshold-monitor firmware).  ``stimuli`` lists the stimulus
    family *names*; the runner resolves them against its family table.

    Expansion is deterministic and row-major with the integration style
    innermost, so all styles of one analog point are adjacent and reports
    read in Table III order.  (Multiprocess chunk boundaries are not snapped
    to those groups; a chunk cut inside one costs at most one repeated
    abstraction per worker, since the abstraction memo is per-chunk.)
    Every scenario receives a deterministic ``seed``
    derived from its *analog* axes (parameter point × stimulus × firmware)
    through :func:`repro.sweep.seeds.spawn_seeds`,
    shared by all integration styles of that point — seed-aware stimulus
    families therefore drive every style of one smart system with identical
    waveforms, preserving the cross-style equivalence guarantee.
    """

    parameters: "SweepSpec | Sequence[Scenario] | None" = None
    styles: Sequence[str] = ("python",)
    firmwares: "Mapping[str, str | None] | None" = None
    stimuli: Sequence[str] = ("default",)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.styles:
            raise SweepError("a platform spec needs at least one analog style")
        unknown = [style for style in self.styles if style not in ANALOG_STYLES]
        if unknown:
            raise SweepError(
                f"unknown analog integration style(s) {unknown}; "
                f"expected a subset of {ANALOG_STYLES}"
            )
        if len(set(self.styles)) != len(list(self.styles)):
            raise SweepError("duplicate analog styles in the platform spec")
        if self.firmwares is not None and not self.firmwares:
            raise SweepError("the firmware table must name at least one variant")
        if not self.stimuli:
            raise SweepError("a platform spec needs at least one stimulus family")

    # -- axis expansion ----------------------------------------------------------------
    def firmware_table(self) -> dict[str, "str | None"]:
        """The firmware variants swept over (name → assembly source)."""
        if self.firmwares is None:
            return {"default": None}
        return dict(self.firmwares)

    def _parameter_scenarios(self) -> list[Scenario]:
        if self.parameters is None:
            points = [Scenario(index=0, label="nominal", params={}, origin="nominal")]
        elif isinstance(self.parameters, SweepSpec):
            points = self.parameters.expand()
        else:
            points = list(self.parameters)
        carrying = [point.label for point in points if point.stimuli is not None]
        if carrying:
            # Platform scenarios select stimuli by *family name* (resolved by
            # the runner); honoring a per-point stimulus mapping here would
            # silently bypass that, so make the conflict loud instead.
            raise SweepError(
                f"parameter scenarios {carrying[:3]} carry their own stimuli; "
                f"platform sweeps select stimuli through the spec's stimulus "
                f"families instead"
            )
        return points

    def expand(self) -> list[PlatformScenario]:
        """The flat, deterministically ordered platform scenario list."""
        scenarios: list[PlatformScenario] = []
        firmware_names = list(self.firmware_table())
        points = self._parameter_scenarios()
        seeds = spawn_seeds(
            self.seed, len(points) * len(list(self.stimuli)) * len(firmware_names)
        )
        analog_index = 0
        for point in points:
            for stimulus in self.stimuli:
                for firmware in firmware_names:
                    seed = seeds[analog_index]
                    analog_index += 1
                    for style in self.styles:
                        scenarios.append(
                            PlatformScenario(
                                index=len(scenarios),
                                label=point.label,
                                params=dict(point.params),
                                style=style,
                                firmware=firmware,
                                stimulus=stimulus,
                                seed=seed,
                                origin=point.origin,
                            )
                        )
        return scenarios

    def __len__(self) -> int:
        points = len(self._parameter_scenarios())
        return points * len(list(self.stimuli)) * len(self.firmware_table()) * len(
            list(self.styles)
        )


@dataclass
class PlatformSweepConfig:
    """The platform engine: the picklable recipe shipped to every worker.

    One scenario is one job of :mod:`repro.sweep.executor`; its outcome is
    the ``(PlatformRunResult, wall seconds)`` pair of one platform run.
    """

    ENGINE = "platform-sweep"
    UNITS = "platform scenarios"

    factory: Callable[..., Circuit]
    output: str
    timestep: float
    duration: float
    cpu_clock_hz: float
    stimuli: dict[str, StimulusFamily]
    firmwares: dict[str, "str | None"]
    method: str = "backward_euler"
    record_analog: bool = True
    #: CPU instructions executed per DE-kernel event (see
    #: :class:`~repro.vp.platform.SmartSystemPlatform`); 1 is the historical
    #: one-instruction-per-tick model, larger blocks are faster with
    #: identical scenario fingerprints.
    cpu_block_cycles: int = 256
    #: Pre-abstracted models keyed by the sorted parameter tuple; seeds the
    #: per-chunk abstraction memo so callers that already ran the abstraction
    #: flow (e.g. the Table III harness) do not pay for it twice.
    premade_models: dict[tuple, SignalFlowModel] = field(default_factory=dict)
    #: Capture :class:`~repro.errors.ReproError` raised while attaching or
    #: running a scenario as a ``crashed`` run result instead of aborting the
    #: whole sweep.  Fault campaigns set this: an injected fault taking the
    #: CPU down is a *classification outcome* (crash-halt), not a sweep error.
    capture_errors: bool = False

    def store_inputs(self, scenario: PlatformScenario) -> dict:
        """The full-input payload whose digest addresses one platform run.

        Covers the circuit factory, analog parameters, integration style,
        firmware *source* (names are presentation; the assembled image is
        what runs), resolved stimulus family plus scenario seed, the
        execution grid and any scenario-subclass extras (fault spec).
        ``cpu_block_cycles`` is deliberately excluded: block-stepped
        execution is guaranteed (and tested) to produce bit-identical
        fingerprints and ADC traces at any block size, so records are shared
        across block configurations.  Scenario position/label are excluded —
        identical work shares a record no matter where it sits in the
        expansion.
        """
        return {
            "engine": "platform-sweep",
            "factory": fingerprint(self.factory),
            "output": self.output,
            "timestep": self.timestep,
            "duration": self.duration,
            "cpu_clock_hz": self.cpu_clock_hz,
            "method": self.method,
            "record_analog": self.record_analog,
            "cosim_options": [],  # a removed option, kept so stored keys stay valid
            "firmware": self.firmwares[scenario.firmware],
            "stimulus": fingerprint(self.stimuli[scenario.stimulus]),
            "seed": scenario.seed,
            "style": scenario.style,
            # fingerprint() also canonicalizes numpy-typed parameter values
            # (np.float32/np.int64 from array-built axes are not JSON types).
            "params": [
                [name, fingerprint(value)]
                for name, value in sorted(scenario.params.items())
            ],
            "extras": scenario.store_key_extras(),
        }

    def execute(
        self, scenarios: Sequence[PlatformScenario], pending: Sequence[int]
    ) -> Iterator[tuple[int, "tuple[PlatformRunResult, float]"]]:
        """Run the ``pending`` scenarios, yielding each as it ends.

        Scenarios with a :meth:`~PlatformScenario.fork_time` inside the run
        are grouped by base configuration (parameters, style, firmware,
        stimulus, seed).  Each group simulates its base run once, through
        the fork times in ascending order, and runs every member from a
        clone taken just before its fork time; a group whose base run
        raises runs its remaining members from scratch.  Every other
        scenario runs from scratch.
        """
        # The abstracted model depends only on the analog parameters, so the
        # three abstracted styles of one analog point share one abstraction.
        model_memo: dict[tuple, SignalFlowModel] = dict(self.premade_models)
        groups: dict[tuple, list[int]] = {}
        for position in pending:
            scenario = scenarios[position]
            at = scenario.fork_time()
            if at is not None and 0.0 < at < self.duration:
                base = (scenario.analog_key(), scenario.style, scenario.seed)
                groups.setdefault(base, []).append(position)
        grouped = {position: group for group in groups.values() for position in group}
        for position in pending:
            group = grouped.get(position)
            if group is None:
                outcomes = [
                    (position, _run_platform_scenario(self, scenarios[position], model_memo))
                ]
            elif group[0] == position:
                outcomes = _run_forked(self, scenarios, group, model_memo)
            else:
                continue
            for done, (result, wall) in outcomes:
                if TRACER.enabled:
                    TRACER.add("platform.runs")
                    TRACER.add("platform.instructions", float(result.instructions))
                    TRACER.add("platform.bus_transactions", float(result.bus_transactions))
                    TRACER.add("platform.analog_samples", float(result.analog_samples))
                    if result.crashed is not None:
                        TRACER.add("platform.crashes")
                yield done, (result, wall)

    @staticmethod
    def encode(outcome: "tuple[PlatformRunResult, float]") -> dict:
        """The store record of one run: its result payload and wall time."""
        result, wall = outcome
        return {"result": result.to_payload(), "elapsed": wall}

    def decode(self, record: dict) -> "tuple[PlatformRunResult, float] | None":
        """A stored run, or ``None`` when this sweep must re-execute it."""
        result = PlatformRunResult.from_payload(record["result"])
        # A crashed result is only a valid outcome under error capture;
        # without it the engine's contract is to raise, so re-execute and
        # let the real error surface.
        if result.crashed is not None and not self.capture_errors:
            return None
        TRACER.add("platform.loaded")
        return result, float(record.get("elapsed", 0.0))

    @staticmethod
    def latency(outcome: "tuple[PlatformRunResult, float]") -> float:
        """Wall seconds the run spent inside ``platform.run``."""
        return outcome[1]


def _new_platform(
    config: PlatformSweepConfig, scenario: PlatformScenario
) -> SmartSystemPlatform:
    return SmartSystemPlatform(
        cpu_clock_hz=config.cpu_clock_hz,
        analog_timestep=config.timestep,
        firmware=config.firmwares[scenario.firmware],
        record_analog=config.record_analog,
        cpu_block_cycles=config.cpu_block_cycles,
    )


def _attach(
    config: PlatformSweepConfig,
    scenario: PlatformScenario,
    platform: SmartSystemPlatform,
    model_memo: dict,
) -> None:
    """Attach the scenario's analog subsystem, driven by its stimulus family."""
    family = config.stimuli[scenario.stimulus]
    stimuli = family(scenario.seed) if callable(family) else family
    if scenario.style in ABSTRACTED_STYLES:
        # Build the circuit only on a memo miss: with a seeded/memoised
        # model the netlist is never needed (and the factory never called).
        key = tuple(sorted(scenario.params.items()))
        model = model_memo.get(key)
        if model is None:
            circuit = config.factory(**scenario.params)
            flow = AbstractionFlow(config.timestep, method=config.method)
            model = flow.abstract(circuit, config.output, name=circuit.name).model
            model_memo[key] = model
        platform.attach_analog(scenario.style, stimuli, model=model)
    else:
        platform.attach_analog(
            scenario.style,
            stimuli,
            circuit=config.factory(**scenario.params),
            output=canonical_quantity(config.output),
        )


def _run_platform_scenario(
    config: PlatformSweepConfig,
    scenario: PlatformScenario,
    model_memo: dict,
    base: "SmartSystemPlatform | None" = None,
) -> tuple[PlatformRunResult, float]:
    """Build, attach and run one platform configuration; returns (result, wall).

    With ``base``, an attached platform simulated up to just before the
    scenario's fork time, the run continues a clone of it instead, and its
    wall time starts before the clone.
    """
    start = None
    if base is None:
        platform = _new_platform(config, scenario)
    else:
        start = _time.perf_counter()
        platform = base.clone()
    try:
        if base is None:
            _attach(config, scenario, platform, model_memo)
        scenario.prepare_platform(platform)
        if start is None:
            start = _time.perf_counter()
        result = platform.run_until(config.duration)
        return result, _time.perf_counter() - start
    except ReproError as error:
        if not config.capture_errors:
            raise
        result = platform.snapshot(crashed=f"{type(error).__name__}: {error}")
        wall = _time.perf_counter() - start if start is not None else 0.0
        return result, wall


def _run_forked(
    config: PlatformSweepConfig,
    scenarios: Sequence[PlatformScenario],
    group: Sequence[int],
    model_memo: dict,
) -> Iterator[tuple[int, "tuple[PlatformRunResult, float]"]]:
    """Run one base configuration's forking scenarios from clones of its
    base run; each ``(position, outcome)`` is yielded as it ends."""
    order = sorted(group, key=lambda position: scenarios[position].fork_time())
    base = _new_platform(config, scenarios[order[0]])
    try:
        _attach(config, scenarios[order[0]], base, model_memo)
    except ReproError:
        base = None
    while order and base is not None:
        at = scenarios[order[0]].fork_time()
        TRACER.add("platform.checkpoints")
        try:
            base.advance_before(at)
        except ReproError:
            break
        while order and scenarios[order[0]].fork_time() == at:
            position = order.pop(0)
            yield position, _run_platform_scenario(
                config, scenarios[position], model_memo, base
            )
    # What the base run could not reach runs from scratch, where its failure
    # is recorded (or raised) per scenario.
    for position in order:
        yield position, _run_platform_scenario(config, scenarios[position], model_memo)


class PlatformSweepRunner:
    """Expand a platform spec, run every scenario, aggregate into a result.

    Parameters
    ----------
    factory:
        Circuit factory called with each scenario's analog parameters.  Must
        be picklable (a module-level function) for multiprocess runs.
    output:
        The analog output observed by the ADC bridge (``"out"`` or
        ``"V(out)"``).
    stimuli:
        Either one stimulus mapping (registered as the ``"default"`` family)
        or a mapping of family name → stimulus family; a family may be a
        callable taking the scenario seed for randomized stimuli.
    timestep / cpu_clock_hz / method:
        Platform construction parameters (analog timestep, CPU clock) and
        the discretisation method of the abstraction flow.
    families:
        Forces the interpretation of ``stimuli``: ``True`` = family table,
        ``False`` = plain stimulus mapping, ``None`` (default) = auto-detect
        (any ``Mapping`` value means a family table).  Only needed for a
        family table whose every family is a seed-taking factory, which is
        indistinguishable from a plain waveform mapping by inspection.
    workers:
        ``multiprocessing`` worker count; ``1`` runs serially.  Multiprocess
        and serial runs produce identical per-scenario outcomes.
    record_analog:
        Record the ADC sample stream of every run (needed for cross-style
        NRMSE columns; costs one float per analog timestep).
    cpu_block_cycles:
        Instructions the MIPS ISS retires per DE-kernel event in every
        platform (``1`` = the historical one-per-tick model).  Any value
        produces identical scenario fingerprints; larger blocks are faster.
    capture_errors:
        Record a scenario whose attach/run raises a
        :class:`~repro.errors.ReproError` as a *crashed*
        :class:`~repro.vp.platform.PlatformRunResult` instead of aborting the
        sweep (see the fault campaign layer, :mod:`repro.fault`).
    store:
        A campaign directory (or :class:`~repro.store.RunStore`) into which
        every completed run's outcome — fingerprint fields, metrics and the
        optional ADC trace — is committed atomically as it finishes.
    resume:
        Load runs already committed to ``store`` instead of re-executing
        them (requires ``store``).  A resumed sweep's fingerprints are
        bit-identical to an uninterrupted run's.
    interrupt_after:
        Testing/CI hook simulating a crash: each worker raises
        :class:`~repro.errors.CampaignInterrupted` after *executing* (not
        loading) this many scenarios, leaving the store with exactly the
        committed prefix.
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
        output: str,
        stimuli: "Stimuli | Mapping[str, StimulusFamily]",
        timestep: float = 50e-9,
        cpu_clock_hz: float = 20e6,
        method: str = "backward_euler",
        families: "bool | None" = None,
        workers: int = 1,
        record_analog: bool = True,
        cpu_block_cycles: int = 256,
        premade_models: "Sequence[tuple[Mapping[str, float], SignalFlowModel]] | None" = None,
        capture_errors: bool = False,
        store: "RunStore | str | None" = None,
        resume: bool = False,
        interrupt_after: "int | None" = None,
        trace: "bool | None" = None,
        progress: "bool | None" = None,
    ) -> None:
        if timestep <= 0.0:
            raise ValueError("timestep must be positive")
        if cpu_block_cycles < 1:
            raise ValueError("cpu_block_cycles must be at least 1")
        #: The engine recipe; each run binds its duration and firmware table.
        self.engine = PlatformSweepConfig(
            factory=factory,
            output=output,
            timestep=float(timestep),
            duration=0.0,
            cpu_clock_hz=float(cpu_clock_hz),
            stimuli=self._normalise_families(stimuli, families),
            firmwares={},
            method=method,
            record_analog=bool(record_analog),
            cpu_block_cycles=int(cpu_block_cycles),
            premade_models={
                tuple(sorted(params.items())): model
                for params, model in (premade_models or ())
            },
            capture_errors=bool(capture_errors),
        )
        self.executor = CampaignExecutor(
            workers=workers,
            store=store,
            resume=resume,
            interrupt_after=interrupt_after,
            trace=trace,
            progress=progress,
        )

    @staticmethod
    def _normalise_families(
        stimuli: "Stimuli | Mapping[str, StimulusFamily]",
        families: "bool | None",
    ) -> dict[str, StimulusFamily]:
        """A plain input-name → waveform mapping becomes the default family."""
        if not stimuli:
            raise SweepError("the platform sweep needs at least one stimulus")
        if families is None:
            families = any(isinstance(value, Mapping) for value in stimuli.values())
        if families:
            return {name: family for name, family in stimuli.items()}
        return {"default": dict(stimuli)}

    # -- execution ---------------------------------------------------------------------
    def run(
        self,
        spec: "PlatformScenarioSpec | Sequence[PlatformScenario]",
        duration: float,
        firmwares: "Mapping[str, str | None] | None" = None,
    ) -> "PlatformSweepResult":
        """Simulate every scenario of ``spec`` for ``duration`` seconds.

        A plain scenario list (e.g. a filtered ``spec.expand()``) carries
        firmware *names* only, so the sources must be supplied via
        ``firmwares`` — scenarios naming anything but ``"default"`` are
        rejected otherwise, rather than silently running on the platform's
        default firmware.
        """
        if isinstance(spec, PlatformScenarioSpec):
            scenarios = spec.expand()
            if firmwares is None:
                firmwares = spec.firmware_table()
        else:
            scenarios = list(spec)
            if firmwares is None:
                named = {scenario.firmware for scenario in scenarios}
                unknown = sorted(named - {"default"})
                if unknown:
                    raise SweepError(
                        f"a plain scenario list names firmware variants "
                        f"{unknown} but no sources were given; pass "
                        f"run(..., firmwares={{name: source}}) or run the "
                        f"PlatformScenarioSpec itself"
                    )
                firmwares = {name: None for name in named}
        firmwares = dict(firmwares)
        missing_firmware = sorted(
            {s.firmware for s in scenarios} - set(firmwares)
        )
        if missing_firmware:
            raise SweepError(
                f"scenarios reference unknown firmware variants "
                f"{missing_firmware}; the firmware table has {sorted(firmwares)}"
            )
        if not scenarios:
            raise SweepError("the platform spec expanded to zero scenarios")
        try:
            resolve_steps(duration, self.engine.timestep)
        except SimulationError as exc:
            raise SweepError(str(exc)) from exc
        missing = [
            scenario.stimulus
            for scenario in scenarios
            if scenario.stimulus not in self.engine.stimuli
        ]
        if missing:
            raise SweepError(
                f"scenarios reference unknown stimulus families "
                f"{sorted(set(missing))}; the runner knows "
                f"{sorted(self.engine.stimuli)}"
            )

        config = replace(self.engine, duration=float(duration), firmwares=firmwares)
        campaign = self.executor.run(config, scenarios)
        elapsed = np.array([wall for _, wall in campaign.outcomes], dtype=float)
        return PlatformSweepResult(
            scenarios=scenarios,
            results=[result for result, _ in campaign.outcomes],
            elapsed=elapsed,
            duration=float(duration),
            timestep=config.timestep,
            workers=campaign.workers,
            timings={"wall": campaign.wall, "simulate": float(elapsed.sum())},
            executed=campaign.executed,
            telemetry=campaign.telemetry,
        )


@dataclass
class PlatformSweepResult:
    """Everything produced by one :class:`PlatformSweepRunner` run."""

    scenarios: list[PlatformScenario]
    results: list[PlatformRunResult]
    #: Per-scenario wall-clock seconds spent inside ``platform.run``.
    elapsed: np.ndarray
    duration: float
    timestep: float
    workers: int = 1
    timings: dict[str, float] = field(default_factory=dict)
    #: Per-scenario execution flags: ``True`` for scenarios simulated by this
    #: run, ``False`` for scenarios loaded from a campaign store (resume).
    executed: "np.ndarray | None" = None
    #: Merged worker telemetry when the run was traced; ``None`` otherwise.
    telemetry: "TelemetryReport | None" = None
    #: Memoised scenario_nrmse() result; the traces are immutable after the
    #: run and the reports query the errors once per row.
    _nrmse_cache: "np.ndarray | None | bool" = field(
        default=False, init=False, repr=False, compare=False
    )

    # -- shape queries -----------------------------------------------------------------
    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)

    @property
    def executed_count(self) -> int:
        """Scenarios actually simulated (all of them without a resume store)."""
        if self.executed is None:
            return self.n_scenarios
        return int(np.count_nonzero(self.executed))

    def styles(self) -> list[str]:
        """The integration styles present, in first-appearance order."""
        seen: list[str] = []
        for scenario in self.scenarios:
            if scenario.style not in seen:
                seen.append(scenario.style)
        return seen

    @property
    def baseline_style(self) -> str:
        """The style speed-ups are measured against: co-simulation when it is
        part of the sweep (the paper's pre-abstraction configuration),
        otherwise the first style swept."""
        styles = self.styles()
        return "cosim" if "cosim" in styles else styles[0]

    # -- determinism -------------------------------------------------------------------
    def fingerprints(self) -> list[tuple]:
        """Per-scenario deterministic outcomes (see
        :meth:`~repro.vp.platform.PlatformRunResult.fingerprint`)."""
        return [result.fingerprint() for result in self.results]

    # -- per-scenario metrics -----------------------------------------------------------
    def instructions(self) -> np.ndarray:
        return np.array([result.instructions for result in self.results], dtype=float)

    def analog_samples(self) -> np.ndarray:
        return np.array([result.analog_samples for result in self.results], dtype=float)

    def crossings(self) -> np.ndarray:
        return np.array(
            [result.crossings_reported for result in self.results], dtype=float
        )

    def scenario_nrmse(self) -> "np.ndarray | None":
        """Per-scenario NRMSE of the ADC stream versus the baseline style.

        For every scenario the partner is the scenario with the same analog
        point, firmware and stimulus but the baseline integration style; a
        one-sample alignment offset between engines is tolerated, matching
        :func:`repro.metrics.nrmse.compare_traces`.  ``None`` when analog
        recording was off; baseline scenarios report 0.
        """
        if self._nrmse_cache is not False:
            return self._nrmse_cache
        if any(result.analog_trace is None for result in self.results):
            self._nrmse_cache = None
            return None
        baseline = self.baseline_style
        reference: dict[tuple, np.ndarray] = {}
        for scenario, result in zip(self.scenarios, self.results):
            if scenario.style == baseline:
                reference[scenario.analog_key()] = np.asarray(result.analog_trace)
        errors = np.full(self.n_scenarios, np.nan)
        for position, (scenario, result) in enumerate(
            zip(self.scenarios, self.results)
        ):
            partner = reference.get(scenario.analog_key())
            if partner is None:
                continue
            if scenario.style == baseline:
                errors[position] = 0.0
                continue
            errors[position] = _aligned_nrmse(
                partner, np.asarray(result.analog_trace)
            )
        self._nrmse_cache = errors
        return errors

    # -- aggregation -------------------------------------------------------------------
    def summary_by_style(self) -> dict[str, dict[str, float]]:
        """Table-III-style per-style aggregation over all scenarios."""
        nrmse_values = self.scenario_nrmse()
        baseline_mask = np.array(
            [scenario.style == self.baseline_style for scenario in self.scenarios]
        )
        baseline_mean = (
            float(self.elapsed[baseline_mask].mean()) if baseline_mask.any() else None
        )
        instructions = self.instructions()
        analog_samples = self.analog_samples()
        crossings = self.crossings()
        summary: dict[str, dict[str, float]] = {}
        for style in self.styles():
            mask = np.array(
                [scenario.style == style for scenario in self.scenarios]
            )
            mean_elapsed = float(self.elapsed[mask].mean())
            entry = {
                "scenarios": int(mask.sum()),
                "mean_time": mean_elapsed,
                "total_time": float(self.elapsed[mask].sum()),
                "speedup": (
                    baseline_mean / mean_elapsed
                    if baseline_mean is not None and mean_elapsed > 0.0
                    else float("nan")
                ),
                "instructions_mean": float(instructions[mask].mean()),
                "analog_samples_mean": float(analog_samples[mask].mean()),
                "crossings_mean": float(crossings[mask].mean()),
            }
            if nrmse_values is not None:
                style_errors = nrmse_values[mask]
                style_errors = style_errors[~np.isnan(style_errors)]
                if style_errors.size:
                    entry["nrmse_mean"] = float(style_errors.mean())
                    entry["nrmse_max"] = float(style_errors.max())
            summary[style] = entry
        return summary

    # -- reporting ---------------------------------------------------------------------
    def to_markdown(self) -> str:
        """Markdown report: per-style Table-III summary plus scenario table."""
        lines = [
            f"# Platform sweep report — {self.n_scenarios} scenarios",
            "",
            f"- simulated time per scenario: {self.duration:g} s "
            f"({resolve_steps(self.duration, self.timestep)} analog steps of "
            f"{self.timestep:g} s)",
            f"- workers: {self.workers}",
            f"- baseline style: `{self.baseline_style}`",
        ]
        for phase, seconds in self.timings.items():
            lines.append(f"- {phase}: {seconds:.3f} s")
        lines.append("")
        lines.append("## Integration styles (Table III layout)")
        lines.append("")
        summary = self.summary_by_style()
        has_nrmse = any("nrmse_mean" in entry for entry in summary.values())
        header = "| style | scenarios | mean time (s) | speed-up | instructions |"
        divider = "|---|---|---|---|---|"
        if has_nrmse:
            header += " NRMSE mean | NRMSE max |"
            divider += "---|---|"
        lines.append(header)
        lines.append(divider)
        for style, entry in summary.items():
            row = (
                f"| {style} | {entry['scenarios']} | {entry['mean_time']:.4f} "
                f"| {entry['speedup']:.2f}x | {entry['instructions_mean']:.0f} |"
            )
            if has_nrmse:
                mean = entry.get("nrmse_mean")
                peak = entry.get("nrmse_max")
                row += (
                    f" {mean:.3e} | {peak:.3e} |"
                    if mean is not None
                    else " - | - |"
                )
            lines.append(row)
        lines.append("")
        lines.append("## Scenarios")
        lines.append("")
        header_cells = self._header_cells()
        lines.append("| " + " | ".join(header_cells) + " |")
        lines.append("|" + "---|" * len(header_cells))
        for index in range(self.n_scenarios):
            lines.append("| " + " | ".join(self._row_cells(index)) + " |")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The per-scenario table as CSV (quoted label/params columns)."""
        rows = [",".join(self._header_cells())]
        for index in range(self.n_scenarios):
            cells = self._row_cells(index)
            cells[1] = f'"{cells[1]}"'
            cells[2] = f'"{cells[2]}"'
            rows.append(",".join(cells))
        return "\n".join(rows)

    def _header_cells(self) -> list[str]:
        cells = [
            "#",
            "label",
            "params",
            "style",
            "firmware",
            "stimulus",
            "time_s",
            "instructions",
            "analog_samples",
            "crossings",
            "uart_bytes",
        ]
        if self.scenario_nrmse() is not None:
            cells.append("nrmse_vs_baseline")
        return cells

    def _row_cells(self, index: int) -> list[str]:
        scenario = self.scenarios[index]
        result = self.results[index]
        params = ";".join(
            f"{name}={_format_value(value)}"
            for name, value in scenario.params.items()
        )
        cells = [
            str(scenario.index),
            scenario.label,
            params,
            scenario.style,
            scenario.firmware,
            scenario.stimulus,
            f"{self.elapsed[index]:.4f}",
            str(result.instructions),
            str(result.analog_samples),
            str(result.crossings_reported),
            str(len(result.uart_output)),
        ]
        errors = self.scenario_nrmse()
        if errors is not None:
            value = errors[index]
            cells.append("-" if np.isnan(value) else f"{value:.3e}")
        return cells


def _aligned_nrmse(reference: np.ndarray, measured: np.ndarray) -> float:
    """NRMSE between two sample streams, tolerating a one-sample offset.

    The integration styles sample the same analog grid but may start one
    delta-aligned sample apart (exactly the offset
    :func:`repro.metrics.nrmse.compare_traces` resamples away for traces);
    with raw index-aligned streams the equivalent is taking the best of the
    {-1, 0, +1} shifts.
    """
    best = np.inf
    for shift in (-1, 0, 1):
        if shift >= 0:
            a, b = reference[shift:], measured
        else:
            a, b = reference, measured[-shift:]
        length = min(a.size, b.size)
        if length == 0:
            continue
        best = min(best, nrmse(a[:length], b[:length]))
    if not np.isfinite(best):
        raise SweepError("cannot compare empty analog traces")
    return float(best)
