"""The fault-campaign engine: fault universe × activation times × scenarios.

A :class:`FaultCampaignSpec` crosses three axes into a flat, deterministically
ordered list of :class:`FaultScenario` runs:

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

A fault campaign *is* a platform sweep: :class:`FaultCampaignRunner` is a
:class:`~repro.sweep.platform.PlatformSweepRunner` that records every ADC
stream, builds circuits through the campaign's analog faults and captures
errors, so a fault that takes the CPU down (or makes the faulted netlist
unabstractable) is recorded as a crash outcome instead of aborting the
campaign.  Its ``python``-style runs read the ADC from one precomputed analog
stream per analog configuration, with outcomes identical to the analog
ticker's (see :meth:`PlatformSweepConfig.execute
<repro.sweep.platform.PlatformSweepConfig.execute>`).  Its result, a
:class:`~repro.fault.report.FaultCampaignResult`, is the sweep result plus
per-fault verdicts, coverage matrices and reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..errors import FaultError
from ..network.circuit import Circuit
from ..store import fingerprint as store_fingerprint
from ..sweep.platform import PlatformScenario, PlatformScenarioSpec, PlatformSweepRunner
from ..sweep.seeds import spawn_seeds
from ..vp.platform import SmartSystemPlatform
from .models import AnalogFault, DigitalFault, FaultModel
from .report import FaultCampaignResult

#: Synthetic factory parameter carrying the analog fault name through the
#: sweep layer.  It rides in ``PlatformScenario.params``, so the sweep
#: runner's per-parameter model memo naturally keys faulted abstractions
#: apart from nominal ones.
FAULT_PARAM = "_fault"


@dataclass
class FaultScenario(PlatformScenario):
    """One campaign run: a platform scenario with a fault (or none) riding along.

    Analog faults travel inside ``params`` (see :data:`FAULT_PARAM`) and are
    applied by the campaign's circuit factory; digital faults arm themselves
    on the assembled platform through the scenario preparation hook, inside
    the worker process.  ``golden_index`` is the position of the fault-free
    run of the same platform scenario, the reference its verdict compares
    against; a golden run names itself.
    """

    fault: "FaultModel | None" = None
    at_time: float = 0.0
    fault_seed: int = 0
    golden_index: int = 0

    @property
    def golden(self) -> bool:
        return self.fault is None

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
        when = "" if self.fault.layer == "analog" else f"@{self.at_time:g}s"
        return f"{base} fault={self.fault.name}{when}"


@dataclass
class FaultableCircuitFactory:
    """Circuit factory wrapper applying the named analog fault after build.

    The sweep workers call ``factory(**scenario.params)``; when the params
    carry :data:`FAULT_PARAM`, the corresponding netlist transform runs on
    the freshly built circuit.  Module-level and dataclass-based so the whole
    recipe pickles into worker processes.
    """

    base: Callable[..., Circuit]
    faults: dict[str, AnalogFault] = field(default_factory=dict)

    def __call__(self, _fault: str = "", **params) -> Circuit:
        circuit = self.base(**params)
        if _fault:
            self.faults[_fault].apply(circuit)
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

    def expand(self) -> list[FaultScenario]:
        """The flat campaign: golden runs first, then every faulted run.

        Ordering is deterministic and row-major (fault outermost, activation
        time, then platform scenario), so run indices are stable across
        serial and multiprocess executions.  The golden runs sit at
        positions ``0..n-1`` in platform-scenario order, so a run's
        ``golden_index`` is its platform scenario's index.
        """
        scenarios = self.platform_scenarios()
        strikes: list[tuple["FaultModel | None", float]] = [(None, 0.0)]
        for fault in self.faults:
            times = (
                (0.0,) if isinstance(fault, AnalogFault) else self.activation_times
            )
            strikes.extend((fault, at_time) for at_time in times)
        seeds = spawn_seeds(self.seed, len(strikes) * len(scenarios))
        runs: list[FaultScenario] = []
        for fault, at_time in strikes:
            for scenario in scenarios:
                params = dict(scenario.params)
                if isinstance(fault, AnalogFault):
                    params[FAULT_PARAM] = fault.name
                position = len(runs)
                runs.append(
                    FaultScenario(
                        index=position,
                        label=scenario.label,
                        params=params,
                        style=scenario.style,
                        firmware=scenario.firmware,
                        stimulus=scenario.stimulus,
                        seed=scenario.seed,
                        origin="fault-campaign",
                        fault=fault,
                        at_time=at_time,
                        fault_seed=seeds[position],
                        golden_index=scenario.index,
                    )
                )
        return runs

    def __len__(self) -> int:
        scenarios = len(self.platform_scenarios())
        analog = sum(1 for fault in self.faults if isinstance(fault, AnalogFault))
        digital = len(self.faults) - analog
        return scenarios * (1 + analog + digital * len(list(self.activation_times)))


class FaultCampaignRunner(PlatformSweepRunner):
    """Expand a campaign spec, run every experiment, classify every fault.

    A :class:`~repro.sweep.platform.PlatformSweepRunner` with the ADC
    stream recorded (it feeds the trace-divergence verdict), error
    capture on (a fault that takes the platform down is a crash outcome)
    and ``python`` runs fed from precomputed analog streams (the analog
    side is open loop, so each configuration's samples are computed once);
    every other parameter is the platform runner's, including
    ``store``/``resume``/``interrupt_after`` for durable campaigns whose
    resumed verdicts, coverage and reports are bit-identical to an
    uninterrupted run's.  Those two platform parameters are not accepted.

    ``nrmse_threshold`` is the ADC-trace divergence level above which a
    fault that left the software outcome untouched still counts as
    *trace-divergent* rather than *silent*.
    """

    def __init__(self, *args, nrmse_threshold: float = 1e-3, **options) -> None:
        if nrmse_threshold <= 0.0:
            raise FaultError("the NRMSE divergence threshold must be positive")
        self.nrmse_threshold = float(nrmse_threshold)
        super().__init__(*args, record_analog=True, capture_errors=True, **options)
        self.engine = replace(self.engine, analog_streams=True)

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
        return super().run(runs, duration, firmwares=spec.firmware_table())

    def _circuit_factory(
        self, scenarios: Sequence[PlatformScenario]
    ) -> Callable[..., Circuit]:
        """Build circuits through the analog faults the runs name."""
        faults = {
            run.fault.name: run.fault
            for run in scenarios
            if isinstance(run.fault, AnalogFault)
        }
        return FaultableCircuitFactory(self.engine.factory, faults)

    def _result(self, telemetry, **fields) -> FaultCampaignResult:
        return FaultCampaignResult(
            **fields,
            telemetry=None if telemetry is None else telemetry.retagged("fault-campaign"),
            nrmse_threshold=self.nrmse_threshold,
        )
