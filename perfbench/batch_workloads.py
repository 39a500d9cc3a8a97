"""The batch workloads: a durable fault campaign and a Monte-Carlo analog sweep.

``fault_campaign`` runs :class:`~repro.fault.FaultCampaignRunner` with two
workers.  Phase 1 executes the campaign into a fresh
:class:`~repro.store.RunStore`; phase 2 resumes it from that store, three
times, which only reads.  ``analog_sweep`` runs
:class:`~repro.sweep.SweepRunner` over a seeded 256-point tolerance
Monte-Carlo of RC20 on the ``numpy`` and ``native`` batch backends in turn,
a 64-point slice of the points per round.

Worker-side layer times come back inside the campaign's merged
:class:`~repro.obs.TelemetryReport`: the abstraction and store probes are
tracer spans, recorded in whichever process runs them.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
from functools import partial

import numpy as np

from repro.circuits import rc_benchmark
from repro.circuits.rc_filter import DEFAULT_CAPACITANCE, DEFAULT_RESISTANCE, build_rc_filter
from repro.core import AbstractionFlow
from repro.core.codegen import NativeGenerator, NumpyGenerator, compile_model_cached
from repro.fault import (
    FaultCampaignRunner,
    FaultCampaignSpec,
    ParameterDriftFault,
    analog_fault_universe,
    digital_fault_universe,
)
from repro.obs import TRACER
from repro.store import RunStore
from repro.sweep import MonteCarloSpec, SweepRunner

from harness import Rates, Tally, clock, span_patch, span_seconds, timed
from platform_workloads import TIMESTEP, square_stimulus

#: fault_campaign sizing.
CAMPAIGN_DURATION = 200e-6
CAMPAIGN_WORKERS = 2
ACTIVATION_TIMES = 6
RESUMES = 3
#: Spans the campaign's critical-path split reads, by layer metric.
WORKER_SPANS = {
    "platform.s": "platform.run",
    "abstract.s": "bench.core.abstract",
    "compile.s": "codegen.compile",
    "store_commit.s": "bench.store.commit",
    "store_load.s": "bench.store.load",
}

#: analog_sweep sizing.
SWEEP_SCENARIOS = 256
#: Scenarios per ``SweepRunner.run`` call: rounds cycle through the slices
#: of the Monte-Carlo, so a run gets several short units per backend.
SWEEP_BATCH = 64
SWEEP_STEPS = 2000
SWEEP_BACKENDS = ("numpy", "native")
SPOT_CHECKS = 3
#: Agreement bound between backends, relative to the reference's peak: the
#: 20th stage of RC20 has barely started to move after 2000 steps, so its
#: outputs are tiny and an absolute bound would pass anything.
AGREEMENT = 1e-9


def relative_deviation(measured: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(measured - reference)) / np.max(np.abs(reference)))


def abstraction_probe():
    return span_patch(AbstractionFlow, "abstract", "bench.core.abstract")


class FaultCampaign:
    """A fault universe on RC1: executed into a store, then resumed from it."""

    name = "fault_campaign"

    def __init__(self, seed: int, workdir) -> None:
        rng = np.random.default_rng(seed)
        self.bench = rc_benchmark(1)
        self.stimuli = {"vin": square_stimulus(rng, TIMESTEP, 700, 900)}
        steps = int(round(CAMPAIGN_DURATION / TIMESTEP))
        picks = rng.choice(np.arange(steps // 20, steps - steps // 20), ACTIVATION_TIMES, replace=False)
        self.activation_times = tuple(float(step) * TIMESTEP for step in sorted(picks))
        self.spec_seed = int(rng.integers(2**31))
        self.workdir = workdir
        self.rounds = 0
        self.rates = Rates(processes=CAMPAIGN_WORKERS)
        #: Executed-run latencies of phase 1, in ms.
        self.latencies: list[float] = []
        self.expected = None
        #: Worker events of the traced phases, for the Chrome trace.
        self.extra_events: list[dict] = []

    def setup(self) -> None:
        circuit = self.bench.circuit()
        faults = [
            ParameterDriftFault("r1", 1.0 + 1e-9),  # the silent sentinel
            *analog_fault_universe(circuit),
            *digital_fault_universe(),
        ]
        self.spec = FaultCampaignSpec(
            faults=faults, activation_times=self.activation_times, seed=self.spec_seed
        )
        self.runs = len(self.spec)
        # The forked workers inherit the compiled nominal model.
        model = AbstractionFlow(TIMESTEP).abstract(circuit, "out", name=circuit.name).model
        compile_model_cached(model)

    def runner(self, store, resume: bool, traced: bool) -> FaultCampaignRunner:
        return FaultCampaignRunner(
            self.bench.build,
            "out",
            self.stimuli,
            timestep=TIMESTEP,
            workers=CAMPAIGN_WORKERS,
            store=store,
            resume=resume,
            trace=traced,
            progress=False,
        )

    def phase(self, store, resume: bool, traced: bool):
        """One campaign execution plus verdict classification."""
        start = clock()
        result = self.runner(store, resume, traced).run(self.spec, CAMPAIGN_DURATION)
        ran = clock()
        counts = result.counts()
        end = clock()
        TRACER.complete("bench.phase", start, end - start, "bench", resume=resume)
        return result, counts, end - start, ran - start, end - ran

    def round(self, checks, traced: bool):
        self.rounds += 1
        store = RunStore(self.workdir / f"store-{self.rounds}")
        probes = contextlib.ExitStack()
        if traced:
            probes.enter_context(abstraction_probe())
            probes.enter_context(span_patch(RunStore, "commit", "bench.store.commit"))
            probes.enter_context(span_patch(RunStore, "load", "bench.store.load"))
        layers: dict[str, float] = {}
        simulated = self.runs * CAMPAIGN_DURATION
        with probes:
            if not traced:
                self.rates.start_round()
            result, counts, wall, run_wall, classify = self.phase(store, False, traced)
            phases = [(result, wall, run_wall, classify)]
            self.check_outcome(checks, result, counts)
            if not traced:
                self.latencies.extend(1e3 * result.elapsed[result.executed])
                self.rates.add_part("execute", simulated, wall)
            for _ in range(RESUMES):
                again, again_counts, wall, run_wall, classify = self.phase(store, True, traced)
                phases.append((again, wall, run_wall, classify))
                checks.expect(
                    again.executed_count == 0
                    and again_counts == counts
                    and again.results == result.results,
                    "resumed campaign is not bit-identical to the executed one",
                )
            if not traced:
                resumed = sum(wall for _, wall, _, _ in phases[1:])
                self.rates.add_part("resume", RESUMES * simulated, resumed)
                self.rates.end_round()
        shutil.rmtree(store.directory, ignore_errors=True)
        total = sum(wall for _, wall, _, _ in phases)
        if traced:
            layers = self.layer_split(phases, counts)
        return total, layers

    def check_outcome(self, checks, result, counts) -> None:
        outcome = (counts, result.fingerprints())
        if self.expected is None:
            self.expected = outcome
        checks.expect(outcome == self.expected, "campaign outcome differs from the first round's")
        checks.expect(
            counts["silent"] >= 1 and counts["firmware-detected"] >= 1,
            f"campaign verdicts {counts} lack a silent or a detected fault",
        )

    def layer_split(self, phases, counts) -> dict:
        """Critical-path split: the busiest worker's spans, dispatch, classify.

        Per phase, the worker whose attributed spans sum highest is the
        critical one; ``sweep.dispatch_s`` is the runner's wall minus that
        worker's attributed time (pool start, pickling, idle waiting and
        unattributed worker glue).  Counts are campaign totals.
        """
        layers = {metric: 0.0 for metric in WORKER_SPANS}
        layers.update({"dispatch.s": 0.0, "classify.s": 0.0, "other.s": 0.0})
        counters: dict[str, float] = {}
        for result, wall, run_wall, classify in phases:
            telemetry = result.telemetry
            pids = {event["pid"] for event in telemetry.events}
            split = {
                pid: {
                    metric: span_seconds(telemetry.events, span, pid)
                    for metric, span in WORKER_SPANS.items()
                }
                for pid in pids
            }
            critical = max(split.values(), key=lambda spans: sum(spans.values()))
            for metric, seconds in critical.items():
                layers[metric] += seconds
            layers["dispatch.s"] += run_wall - sum(critical.values())
            layers["classify.s"] += classify
            layers["other.s"] += wall - run_wall - classify
            for name, value in telemetry.counters.items():
                counters[name] = counters.get(name, 0.0) + value
            self.extra_events.extend(telemetry.events)
        executed = phases[0][0].telemetry
        layers.update(
            {
                "core.abstractions": counters.get("flow.abstractions", 0.0),
                "core.compiles": counters.get("codegen.compiles", 0.0),
                "core.cache_hits": counters.get("codegen.cache_hits", 0.0),
                "sweep.worker_busy_frac": executed.worker_utilization or 0.0,
                "store.commits": counters.get("store.commits", 0.0),
                "store.hits": counters.get("store.hits", 0.0),
                "store.misses": counters.get("store.misses", 0.0),
            }
        )
        for verdict, count in counts.items():
            layers[f"fault.verdicts.{verdict}"] = float(count)
        return layers

    def verify(self, checks, info) -> None:
        info["campaign_runs"] = self.runs
        if self.latencies:
            info["run_ms.p50"] = float(np.percentile(self.latencies, 50))
            info["run_ms.p90"] = float(np.percentile(self.latencies, 90))
            info["run_ms.samples"] = len(self.latencies)
        if self.expected is not None:
            counts, fingerprints = self.expected
            info["verdicts"] = counts
            info["fingerprints"] = hashlib.sha256(repr(fingerprints).encode()).hexdigest()[:16]


class AnalogSweep:
    """A tolerance Monte-Carlo over RC20 on the numpy and native batch kernels."""

    name = "analog_sweep"

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.factory = partial(build_rc_filter, 20)
        self.stimuli = {"vin": square_stimulus(rng, TIMESTEP, 700, 900)}
        self.spec = MonteCarloSpec(
            nominal={"resistance": DEFAULT_RESISTANCE, "capacitance": DEFAULT_CAPACITANCE},
            tolerances={"resistance": 0.05, "capacitance": 0.1},
            samples=SWEEP_SCENARIOS,
            seed=int(rng.integers(2**31)),
        )
        # Spot checks fall in the first slice, which the first round runs.
        self.spot = sorted(int(i) for i in rng.choice(SWEEP_BATCH, SPOT_CHECKS, replace=False))
        self.rounds = 0
        self.rates = Rates()
        #: Output digest of the first run of each (backend, slice).
        self.digests: dict[tuple, str] = {}
        #: Slice 0's numpy outputs, for the scalar spot checks.
        self.reference: "np.ndarray | None" = None
        self.extra_events: list[dict] = []

    def setup(self) -> None:
        circuit = self.factory()
        model = AbstractionFlow(TIMESTEP).abstract(circuit, "out", name=circuit.name).model
        NumpyGenerator().generate_batch([model]).instantiate()
        NativeGenerator().generate_batch([model]).instantiate()
        self.scenarios = self.spec.expand()

    def runner(self, backend: str, traced: bool = False) -> SweepRunner:
        return SweepRunner(
            self.factory, "out", self.stimuli, TIMESTEP,
            backend=backend, workers=1, trace=traced, progress=False,
        )

    def round(self, checks, traced: bool):
        chunk = self.rounds % (SWEEP_SCENARIOS // SWEEP_BATCH)
        self.rounds += 1
        scenarios = self.scenarios[chunk * SWEEP_BATCH : (chunk + 1) * SWEEP_BATCH]
        wall = 0.0
        layers: dict[str, float] = {}
        base = dict(TRACER.counters)
        outputs: dict[str, np.ndarray] = {}
        if not traced:
            self.rates.start_round()
        for backend in SWEEP_BACKENDS:
            tally = Tally()
            probes = contextlib.ExitStack()
            if traced:
                probes.enter_context(abstraction_probe())
                generator = NumpyGenerator if backend == "numpy" else NativeGenerator
                probes.enter_context(step_batch_probe(generator, tally))
            mark = TRACER.mark()
            with probes:
                start = clock()
                result = self.runner(backend, traced).run(scenarios, SWEEP_STEPS * TIMESTEP)
                unit = clock() - start
            wall += unit
            outputs[backend] = result.outputs[result.output_names()[0]]
            digest = hashlib.sha256(outputs[backend].tobytes()).hexdigest()[:16]
            checks.expect(
                self.digests.setdefault((backend, chunk), digest) == digest,
                f"{backend} outputs of slice {chunk} differ from its first run's",
            )
            if not traced:
                self.rates.add_part(backend, SWEEP_BATCH * SWEEP_STEPS * TIMESTEP, unit)
                continue
            events = TRACER.collect(mark)["events"]
            abstract = span_seconds(events, "bench.core.abstract")
            compile_s = span_seconds(events, "codegen.compile")
            TRACER.complete("bench.unit", start, unit, "bench", backend=backend)
            split = {
                "abstract.s": abstract,
                "compile.s": compile_s,
                "batch.s": tally.seconds,
                "batch.steps": float(tally.calls),
                "other.s": unit - abstract - compile_s - tally.seconds,
            }
            for metric, value in split.items():
                layers[metric] = layers.get(metric, 0.0) + value
            TRACER.add(f"bench.batch.steps.{backend}", float(tally.calls))
        if traced:
            for metric, counter in (
                ("core.abstractions", "flow.abstractions"),
                ("core.compiles", "codegen.compiles"),
                ("core.cache_hits", "codegen.cache_hits"),
            ):
                layers[metric] = TRACER.counters.get(counter, 0.0) - base.get(counter, 0.0)
        else:
            self.rates.end_round()
        deviation = relative_deviation(outputs["native"], outputs["numpy"])
        checks.expect(
            deviation <= AGREEMENT,
            f"native deviates from numpy by {deviation:.3g} (> {AGREEMENT})",
        )
        if chunk == 0 and self.reference is None:
            self.reference = outputs["numpy"]
        return wall, layers

    def verify(self, checks, info) -> None:
        picked = [self.scenarios[index] for index in self.spot]
        scalar = self.runner("python").run(picked, SWEEP_STEPS * TIMESTEP)
        rows = scalar.outputs[scalar.output_names()[0]]
        deviation = relative_deviation(rows, self.reference[self.spot])
        info["spot_check_deviation"] = deviation
        for (backend, chunk), digest in sorted(self.digests.items()):
            info[f"outputs.{backend}.slice{chunk}"] = digest
        checks.expect(
            deviation <= AGREEMENT,
            f"scalar python backend deviates from numpy by {deviation:.3g} on {self.spot}",
        )


@contextlib.contextmanager
def step_batch_probe(generator: type, tally: Tally):
    """Time ``step_batch`` of every batch instance ``generator`` produces."""
    original = generator.__dict__["generate_batch"]

    def generate_batch(self, models):
        artifact = original(self, models)
        instantiate = artifact.instantiate

        def timed_instantiate(*args, **kwargs):
            instance = instantiate(*args, **kwargs)
            instance.step_batch = timed(instance.step_batch, tally)
            return instance

        artifact.instantiate = timed_instantiate
        return artifact

    generator.generate_batch = generate_batch
    try:
        yield
    finally:
        generator.generate_batch = original
