"""The fault-campaign engine: fault universe × activation times × scenarios.

A :class:`FaultCampaignSpec` crosses three axes into a flat, deterministically
ordered list of :class:`FaultRun` experiments:

* the **fault universe** — any mix of analog netlist transforms and digital
  platform hooks from :mod:`repro.fault.models`;
* the **activation times** — absolute instants at which time-gated digital
  faults strike (analog faults are structural and permanently present, so
  they expand once, not once per time);
* the **platform scenarios** — a
  :class:`~repro.sweep.platform.PlatformScenarioSpec` (analog parameter
  point × integration style × firmware × stimulus family), defaulting to the
  single nominal configuration.

The expansion always starts with one **golden** (fault-free) run per platform
scenario: the reference every faulted run is compared against.  Per-run seeds
come from :mod:`repro.sweep.seeds`, the same spawn-based derivation the sweep
layer uses, so faults with randomized targets (e.g. random-address RAM
upsets) inject identically in serial and multiprocess executions.

:class:`FaultCampaignRunner` executes the expansion through the existing
:class:`~repro.sweep.platform.PlatformSweepRunner` multiprocessing fan-out —
a fault run *is* a platform scenario, carried by the picklable
:class:`FaultScenario` subclass — with error capture on, so a fault that
takes the CPU down (or makes the faulted netlist unabstractable) is recorded
as a crash outcome instead of aborting the campaign.  The result is a
:class:`~repro.fault.report.FaultCampaignResult` with per-fault verdicts,
coverage matrices and reports.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from ..errors import FaultError
from ..network.circuit import Circuit
from ..store import RunStore
from ..store import fingerprint as store_fingerprint
from ..sweep.platform import (
    PlatformScenario,
    PlatformScenarioSpec,
    PlatformSweepRunner,
    StimulusFamily,
    Stimuli,
)
from ..sweep.seeds import spawn_seeds
from ..vp.platform import CPU_BLOCK_CYCLES, SmartSystemPlatform
from .models import AnalogFault, DigitalFault, FaultModel
from .report import FaultCampaignResult

#: Synthetic factory parameter carrying the analog fault name through the
#: sweep layer.  It rides in ``PlatformScenario.params``, so the sweep
#: runner's per-parameter model memo naturally keys faulted abstractions
#: apart from nominal ones.
FAULT_PARAM = "_fault"


@dataclass
class FaultRun:
    """One campaign experiment: a fault (or none) on one platform scenario."""

    index: int
    fault: "FaultModel | None"
    at_time: float
    scenario: PlatformScenario
    seed: int

    @property
    def golden(self) -> bool:
        return self.fault is None

    def describe(self) -> str:
        tag = "golden" if self.fault is None else self.fault.name
        when = "" if self.fault is None or self.fault.layer == "analog" else (
            f"@{self.at_time:g}s"
        )
        return f"[{self.index}] {tag}{when} on {self.scenario.describe()}"


@dataclass
class FaultScenario(PlatformScenario):
    """A platform scenario with a fault riding along (picklable worker unit).

    Analog faults travel inside ``params`` (see :data:`FAULT_PARAM`) and are
    applied by the campaign's circuit factory; digital faults arm themselves
    on the assembled platform through the scenario preparation hook, inside
    the worker process.
    """

    fault: "FaultModel | None" = None
    at_time: float = 0.0
    fault_seed: int = 0

    def prepare_platform(self, platform: SmartSystemPlatform) -> None:
        if isinstance(self.fault, DigitalFault):
            self.fault.arm(
                platform, self.at_time, np.random.default_rng(self.fault_seed)
            )

    def fork_time(self) -> "float | None":
        """A time-gated digital fault's activation time, else ``None``.

        The run then starts from a clone of its golden run taken just
        before the activation (see :meth:`DigitalFault.arm
        <repro.fault.models.DigitalFault.arm>` for the contract this
        relies on).
        """
        if isinstance(self.fault, DigitalFault) and self.at_time > 0.0:
            return self.at_time
        return None

    def store_key_extras(self) -> dict:
        """Content-key material for the run store: the full fault spec.

        The fault model's parameterization, its activation time and the
        per-run fault seed all change what :meth:`prepare_platform` injects,
        so they are part of the run's identity.  (Analog faults additionally
        ride in ``params`` via :data:`FAULT_PARAM`; fingerprinting the model
        here keys runs apart even when two campaigns reuse a fault *name*
        for different parameterizations.)
        """
        return {
            "fault": store_fingerprint(self.fault),
            "at_time": self.at_time,
            "fault_seed": self.fault_seed,
        }

    def describe(self) -> str:
        base = super().describe()
        if self.fault is None:
            return f"{base} golden"
        return f"{base} fault={self.fault.name}"


@dataclass
class FaultableCircuitFactory:
    """Circuit factory wrapper applying the named analog fault after build.

    The sweep workers call ``factory(**scenario.params)``; when the params
    carry :data:`FAULT_PARAM`, the corresponding netlist transform runs on
    the freshly built circuit.  Module-level and dataclass-based so the whole
    recipe pickles into worker processes.

    With ``lint`` set, every built circuit (golden and mutated alike) runs
    through the netlist semantic linter *after* the fault is applied; an
    error diagnostic raises :class:`repro.lint.LintError`, which the
    error-capturing platform worker records as a crash whose message the
    verdict classifier maps to ``lint-rejected`` — the mutant is skipped
    with a verdict instead of executing a non-physical circuit.
    """

    base: Callable[..., Circuit]
    faults: dict[str, AnalogFault] = field(default_factory=dict)
    lint: bool = False

    def __call__(self, _fault: str = "", **params) -> Circuit:
        circuit = self.base(**params)
        if _fault:
            self.faults[_fault].apply(circuit)
        if self.lint:
            from ..lint import LintError, lint_circuit

            report = lint_circuit(
                circuit, file=f"<fault:{_fault}>" if _fault else "<golden>"
            )
            if not report.ok:
                raise LintError(report)
        return circuit

    def store_fingerprint(self) -> list:
        """Run-store key material: the base factory only.

        The fault table is campaign-wide plumbing — which fault (if any) a
        given build applies is keyed per run through :data:`FAULT_PARAM` in
        the scenario params plus the scenario's fault extras (the full
        fault parameterization).  Keying the whole table here would
        needlessly re-execute golden runs whenever the universe changes.
        """
        return ["fault-factory", store_fingerprint(self.base)]


@dataclass
class FaultCampaignSpec:
    """Declarative description of a robustness campaign.

    ``activation_times`` applies to digital (time-gated) faults only; analog
    faults are structural and expand exactly once per platform scenario.
    ``scenarios`` defaults to the single nominal platform configuration
    (``python`` integration style, default firmware and stimulus).
    """

    faults: Sequence[FaultModel]
    activation_times: Sequence[float] = (0.0,)
    scenarios: "PlatformScenarioSpec | None" = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.faults:
            raise FaultError("a fault campaign needs at least one fault")
        names = [fault.name for fault in self.faults]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise FaultError(
                f"duplicate fault names in the campaign universe: {duplicates}"
            )
        if not self.activation_times:
            raise FaultError("a fault campaign needs at least one activation time")
        for time in self.activation_times:
            if time < 0.0:
                raise FaultError("activation times must be non-negative")

    # -- axis expansion ----------------------------------------------------------------
    def platform_scenarios(self) -> list[PlatformScenario]:
        spec = self.scenarios if self.scenarios is not None else PlatformScenarioSpec()
        return spec.expand()

    def firmware_table(self) -> dict[str, "str | None"]:
        if self.scenarios is not None:
            return self.scenarios.firmware_table()
        return {"default": None}

    def analog_faults(self) -> dict[str, AnalogFault]:
        return {
            fault.name: fault
            for fault in self.faults
            if isinstance(fault, AnalogFault)
        }

    def expand(self) -> list[FaultRun]:
        """The flat campaign: golden runs first, then every faulted run.

        Ordering is deterministic and row-major (fault outermost, activation
        time, then platform scenario), so run indices are stable across
        serial and multiprocess executions.
        """
        scenarios = self.platform_scenarios()
        runs: list[FaultRun] = []
        for scenario in scenarios:
            runs.append(FaultRun(len(runs), None, 0.0, scenario, 0))
        for fault in self.faults:
            times = (
                (0.0,) if isinstance(fault, AnalogFault) else self.activation_times
            )
            for at_time in times:
                for scenario in scenarios:
                    runs.append(FaultRun(len(runs), fault, at_time, scenario, 0))
        for run, seed in zip(runs, spawn_seeds(self.seed, len(runs))):
            run.seed = seed
        return runs

    def __len__(self) -> int:
        scenarios = len(self.platform_scenarios())
        analog = sum(1 for fault in self.faults if isinstance(fault, AnalogFault))
        digital = len(self.faults) - analog
        return scenarios * (1 + analog + digital * len(list(self.activation_times)))


class FaultCampaignRunner:
    """Expand a campaign spec, run every experiment, classify every fault.

    Construction mirrors :class:`~repro.sweep.platform.PlatformSweepRunner`
    (circuit factory, observed output, stimulus families, timestep, worker
    count); ``nrmse_threshold`` is the ADC-trace divergence level above which
    a fault that left the software outcome untouched still counts as
    *trace-divergent* rather than *silent*.

    ``store``/``resume`` make campaigns durable: every completed run (golden
    and faulted alike) is committed to the content-addressed store as it
    finishes, and a resumed campaign loads committed runs instead of
    re-executing them — verdicts, coverage and reports of a resumed
    campaign are bit-identical to an uninterrupted one's.  The calling
    process loads them before any fan-out; workers execute and commit
    only the missing runs, and a fully stored campaign starts none.
    ``interrupt_after`` is the crash-simulation hook used by the resume
    tests and the CI smoke job: each chunk of the runs left to execute
    stops after executing that many (see
    :class:`~repro.sweep.platform.PlatformSweepRunner`).

    ``lint`` enables the strict static-analysis gate: every built circuit is
    run through :func:`repro.lint.lint_circuit` after its fault is applied,
    and a mutant the linter rejects is skipped with the ``lint-rejected``
    verdict instead of simulating a non-physical circuit.
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
        cpu_block_cycles: int = CPU_BLOCK_CYCLES,
        nrmse_threshold: float = 1e-3,
        store: "RunStore | str | None" = None,
        resume: bool = False,
        interrupt_after: "int | None" = None,
        trace: "bool | None" = None,
        progress: "bool | None" = None,
        lint: bool = False,
    ) -> None:
        if nrmse_threshold <= 0.0:
            raise FaultError("the NRMSE divergence threshold must be positive")
        self.nrmse_threshold = float(nrmse_threshold)
        self.lint = bool(lint)
        # Error capture records a fault that takes the platform down as a
        # crash outcome; the ADC trace feeds the trace-divergence verdict.
        self.platform = PlatformSweepRunner(
            factory,
            output,
            stimuli,
            timestep=timestep,
            cpu_clock_hz=cpu_clock_hz,
            method=method,
            families=families,
            workers=workers,
            record_analog=True,
            cpu_block_cycles=cpu_block_cycles,
            capture_errors=True,
            store=store,
            resume=resume,
            interrupt_after=interrupt_after,
            trace=trace,
            progress=progress,
        )

    def run(self, spec: FaultCampaignSpec, duration: float) -> FaultCampaignResult:
        """Execute every run of ``spec`` for ``duration`` seconds each."""
        runs = spec.expand()
        for run in runs:
            if (
                run.fault is not None
                and run.fault.layer == "digital"
                and run.at_time >= duration
            ):
                raise FaultError(
                    f"{run.describe()} activates at {run.at_time:g}s, at or "
                    f"beyond the {duration:g}s campaign duration — the fault "
                    f"would never strike"
                )
        scenarios = [self._as_scenario(position, run) for position, run in enumerate(runs)]
        # The same platform runner, building circuits through this
        # campaign's fault table.
        platform = copy.copy(self.platform)
        platform.engine = replace(
            platform.engine,
            factory=FaultableCircuitFactory(
                platform.engine.factory, spec.analog_faults(), lint=self.lint
            ),
        )
        sweep = platform.run(scenarios, duration, firmwares=spec.firmware_table())
        return FaultCampaignResult(
            runs=runs,
            results=sweep.results,
            elapsed=sweep.elapsed,
            duration=float(duration),
            timestep=sweep.timestep,
            workers=sweep.workers,
            nrmse_threshold=self.nrmse_threshold,
            timings=dict(sweep.timings),
            executed=sweep.executed,
            telemetry=(
                sweep.telemetry.retagged("fault-campaign")
                if sweep.telemetry is not None
                else None
            ),
        )

    @staticmethod
    def _as_scenario(position: int, run: FaultRun) -> FaultScenario:
        params = dict(run.scenario.params)
        if isinstance(run.fault, AnalogFault):
            params[FAULT_PARAM] = run.fault.name
        return FaultScenario(
            index=position,
            label=run.scenario.label,
            params=params,
            style=run.scenario.style,
            firmware=run.scenario.firmware,
            stimulus=run.scenario.stimulus,
            seed=run.scenario.seed,
            origin="fault-campaign",
            fault=run.fault,
            at_time=run.at_time,
            fault_seed=run.seed,
        )
