"""The platform workloads: Table III in all five styles, and a DSP firmware.

Both run :class:`~repro.vp.platform.SmartSystemPlatform` units back to back
in one process.  A unit builds a platform, attaches the analog side and runs
it for a fixed simulated time; a style's rate is simulated milliseconds per
reference second of ``platform.run`` (see :func:`harness.host_speed`).

In a traced unit the benchmark times four nested boundaries from outside:
``Kernel.run`` (whole scheduler), ``MipsCpu.run_block`` (one ISS burst), the
CPU's bus callbacks (one APB access) and the analog model's step.  Self
times follow from the nesting: the bus runs inside a burst, bursts and
analog steps run inside the kernel, and the kernel runs inside the unit.
"""

from __future__ import annotations

import contextlib
import hashlib

import numpy as np

from repro.circuits import rc_benchmark
from repro.core import AbstractionFlow
from repro.core.codegen import compile_model_cached
from repro.metrics.nrmse import nrmse
from repro.obs import TRACER
from repro.sim import AnalogCosimServer, ElnModel, SquareWave, run_python_model
from repro.vp import SmartSystemPlatform
from repro.vp.firmware import ADC_COUNT_OFFSET, ADC_DATA_OFFSET, CROSSING_COUNTER_ADDRESS
from repro.vp.firmware import UART_STATUS_OFFSET, UART_TX_OFFSET

from harness import Rates, Tally, clock, digest_floats, method_patch, timed

#: The paper's analog timestep (Section V.A).
TIMESTEP = 50e-9
#: Table III styles, in the order one round runs them.
STYLES = ("python", "de", "tdf", "eln", "cosim")
ABSTRACTED = ("python", "de", "tdf")
#: Simulated time per style unit; co-simulation is ~10x slower, so it gets less.
SIM_TIME = {"python": 5e-4, "de": 5e-4, "tdf": 5e-4, "eln": 5e-4, "cosim": 1e-4}
#: Accuracy bound of the conservative styles against the abstracted trace.
NRMSE_BOUND = 5e-3

#: sensor_dsp: sensor timestep, simulated time per unit, FIR length.
DSP_TIMESTEP = 10e-6
DSP_SIM_TIME = 0.1
DSP_TAPS = 64
DSP_RING_ADDRESS = 0x8000
#: One UART byte per this many filtered samples (keeps the UART idle-ready).
DSP_REPORT_EVERY = 16


def square_stimulus(rng: np.random.Generator, timestep: float, low: int, high: int):
    """A seeded square wave whose edges sit half a timestep off the sample grid.

    Period and high time are whole numbers of timesteps and the wave is
    delayed by half a step, so no edge coincides with a sample instant and
    every engine sees the same input samples whatever its time arithmetic.
    """
    period = int(rng.integers(low, high + 1))
    high_steps = int(rng.integers(int(0.35 * period), int(0.65 * period) + 1))
    return SquareWave(
        period=period * timestep, duty=high_steps / period, delay=timestep / 2
    )


def fir_firmware(coefficients) -> str:
    """A compute-bound FIR over a RAM ring buffer, reporting on the UART.

    Every new ADC sample goes into a 64-word ring; the filter then sums
    ``coefficient * sample`` over the ring with ``mult``/``mflo``, which
    takes longer than one sensor period, so the firmware always works on the
    most recent sample.  The result lands in RAM and every
    ``DSP_REPORT_EVERY``-th result's low byte goes out on the UART.
    """
    taps = len(coefficients)
    ring_bytes = 4 * taps
    table = "\n".join(f"        .word {value}" for value in coefficients)
    return f"""# FIR filter firmware ({taps} taps) for the sensor_dsp benchmark.
        .text
main:
        lui   $t0, 0x1000
        li    $s0, 0                 # last ADC sample id
        li    $s2, {CROSSING_COUNTER_ADDRESS:#x}
        li    $s3, {DSP_RING_ADDRESS:#x}
        li    $s4, 0                 # ring write offset (bytes)
        la    $s5, coeffs
        li    $s6, 0                 # filtered-sample counter
poll:
        lw    $t5, {ADC_COUNT_OFFSET:#x}($t0)
        beq   $t5, $s0, poll
        move  $s0, $t5
        lw    $t1, {ADC_DATA_OFFSET:#x}($t0)
        addu  $t2, $s3, $s4
        sw    $t1, 0($t2)
        addiu $s4, $s4, 4
        andi  $s4, $s4, {ring_bytes - 1}
        li    $t3, 0                 # accumulator
        li    $t4, 0                 # coefficient offset (bytes)
        move  $t6, $s4               # oldest sample first
fir:
        addu  $t7, $s5, $t4
        lw    $t8, 0($t7)
        addu  $t9, $s3, $t6
        lw    $t9, 0($t9)
        mult  $t8, $t9
        mflo  $t7
        addu  $t3, $t3, $t7
        addiu $t6, $t6, 4
        andi  $t6, $t6, {ring_bytes - 1}
        addiu $t4, $t4, 4
        slti  $t7, $t4, {ring_bytes}
        bne   $t7, $zero, fir
        sra   $t3, $t3, 8
        sw    $t3, 0($s2)
        addiu $s6, $s6, 1
        andi  $t7, $s6, {DSP_REPORT_EVERY - 1}
        bne   $t7, $zero, poll
        andi  $a0, $t3, 0xFF
wait_tx:
        lw    $t5, {UART_STATUS_OFFSET:#x}($t0)
        andi  $t5, $t5, 1
        beq   $t5, $zero, wait_tx
        sw    $a0, {UART_TX_OFFSET:#x}($t0)
        j     poll
coeffs:
{table}
"""


class TimedModel:
    """A generated model instance whose ``step`` is timed into a tally."""

    def __init__(self, instance, tally: Tally) -> None:
        self._instance = instance
        self.step = timed(instance.step, tally)

    def __getattr__(self, name):
        return getattr(self._instance, name)


def new_tallies() -> dict[str, Tally]:
    return {layer: Tally() for layer in ("kernel", "iss", "bus", "analog")}


def analog_probe(style: str, tallies: "dict[str, Tally] | None"):
    """Time the conservative engines, which the platform builds itself."""
    if tallies is None or style in ABSTRACTED:
        return contextlib.nullcontext()
    if style == "eln":
        return method_patch(ElnModel, "step", tallies["analog"])
    return method_patch(AnalogCosimServer, "transact", tallies["analog"])


def probe_platform(platform: SmartSystemPlatform, tallies: dict[str, Tally]) -> None:
    kernel, cpu = platform.kernel, platform.cpu
    kernel.run = timed(kernel.run, tallies["kernel"])
    cpu.run_block = timed(cpu.run_block, tallies["iss"])
    cpu.bus_read = timed(cpu.bus_read, tallies["bus"])
    cpu.bus_write = timed(cpu.bus_write, tallies["bus"])


def unit_counts(result, platform) -> dict:
    """The simulated statistics of one unit; they must repeat exactly."""
    counts = {
        "instructions": result.instructions,
        "bus_transactions": result.bus_transactions,
        "analog_samples": result.analog_samples,
        "crossings": result.crossings_reported,
        "uart": hashlib.sha256(result.uart_output.encode()).hexdigest()[:16],
        "uart_chars": len(result.uart_output),
        "kernel_events": platform.kernel.event_count,
        "kernel_deltas": platform.kernel.delta_count,
        "superblock_hits": platform.cpu.superblock_hit_count,
    }
    if result.analog_trace is not None:
        counts["adc_trace"] = digest_floats(result.analog_trace)
    return counts


def layer_split(tallies, unit_wall, result, platform, counters_before) -> dict:
    """Self times (``<layer>.s``) and counts of one traced platform unit."""
    kernel = tallies["kernel"].seconds
    iss = tallies["iss"].seconds
    bus = tallies["bus"].seconds
    analog = tallies["analog"].seconds
    events = TRACER.counters.get("de.events", 0.0) - counters_before.get("de.events", 0.0)
    deltas = TRACER.counters.get("de.deltas", 0.0) - counters_before.get("de.deltas", 0.0)
    return {
        "de.s": kernel - iss - analog,
        "de.events": events,
        "de.deltas": deltas,
        "iss.s": iss - bus,
        "iss.instructions": float(result.instructions),
        "iss.bursts": float(tallies["iss"].calls),
        "iss.superblock_hits": float(platform.cpu.superblock_stats()["superblock_hits"]),
        "bus.s": bus,
        "bus.accesses": float(tallies["bus"].calls),
        "adc.samples": float(result.analog_samples),
        "analog.s": analog,
        "analog.steps": float(tallies["analog"].calls),
        "other.s": unit_wall - kernel,
    }


class PlatformWorkload:
    """Shared unit loop: build, probe, run, check against the first round."""

    name = ""

    def __init__(self) -> None:
        self.rates = Rates()
        self.expected: dict[str, dict] = {}
        self.first: dict[str, object] = {}
        self.extra_events: list[dict] = []

    def styles(self):
        raise NotImplementedError

    def build(self, style: str, tallies) -> SmartSystemPlatform:
        raise NotImplementedError

    def run_unit(self, style, duration, checks, tallies=None):
        start = clock()
        with analog_probe(style, tallies):
            platform = self.build(style, tallies)
            if tallies is not None:
                probe_platform(platform, tallies)
            run_start = clock()
            result = platform.run(duration)
            end = clock()
        counts = unit_counts(result, platform)
        expected = self.expected.setdefault(style, counts)
        self.first.setdefault(style, result)
        checks.expect(
            counts == expected and result.crashed is None,
            f"{style}: unit statistics {counts} differ from the first unit's {expected}",
        )
        return result, platform, end - run_start, end - start

    def round(self, checks, traced: bool):
        layers: dict[str, float] = {}
        wall = 0.0
        if not traced:
            self.rates.start_round()
        for style, duration in self.styles():
            tallies = new_tallies() if traced else None
            before = dict(TRACER.counters)
            span_start = clock()
            result, platform, run_wall, unit_wall = self.run_unit(
                style, duration, checks, tallies
            )
            wall += unit_wall
            if not traced:
                self.rates.add_part(style, duration, run_wall)
                continue
            TRACER.complete("bench.unit", span_start, unit_wall, "bench", style=style)
            split = layer_split(tallies, unit_wall, result, platform, before)
            for metric, value in split.items():
                layers[metric] = layers.get(metric, 0.0) + value
            for layer, tally in tallies.items():
                TRACER.add(f"bench.{layer}.s.{style}", tally.seconds)
                TRACER.add(f"bench.{layer}.calls.{style}", float(tally.calls))
        if not traced:
            self.rates.end_round()
        return wall, layers


class Table3(PlatformWorkload):
    """Table III: RC1 + threshold firmware under all five analog styles."""

    name = "table3"

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.bench = rc_benchmark(1)
        self.stimuli = {"vin": square_stimulus(rng, TIMESTEP, 700, 900)}

    def styles(self):
        return [(style, SIM_TIME[style]) for style in STYLES]

    def setup(self) -> None:
        circuit = self.bench.circuit()
        self.model = AbstractionFlow(TIMESTEP).abstract(
            circuit, self.bench.output, name=circuit.name
        ).model
        self.model_class = compile_model_cached(self.model)
        for style in STYLES:  # assembles the firmware and attaches every style once
            self.build(style, None)

    def build(self, style, tallies) -> SmartSystemPlatform:
        platform = SmartSystemPlatform(analog_timestep=TIMESTEP, record_analog=True)
        if style in ABSTRACTED:
            instance = self.model_class()
            if tallies is not None:
                instance = TimedModel(instance, tallies["analog"])
            platform.attach_analog(style, self.stimuli, model=instance)
        else:
            platform.attach_analog(
                style,
                self.stimuli,
                circuit=self.bench.circuit(),
                output=self.bench.output_quantity,
            )
        return platform

    def verify(self, checks, info) -> None:
        """Oracles on paths other than the timed one (run after the loop)."""
        info["counts"] = self.expected
        traces = {style: np.asarray(self.first[style].analog_trace) for style in STYLES}
        reference = run_python_model(self.model, self.stimuli, SIM_TIME["python"])
        expected = np.asarray(reference[self.model.outputs[0]].values, dtype=float)
        checks.expect(
            np.array_equal(traces["python"], expected),
            "python ADC trace differs from run_python_model",
        )
        for style in ("de", "tdf"):
            checks.expect(
                np.array_equal(traces[style], traces["python"]),
                f"{style} ADC trace is not bit-identical to python's",
            )
        for style in ("eln", "cosim"):
            measured = traces[style]
            error = nrmse(traces["python"][: len(measured)], measured)
            info[f"nrmse.{style}"] = error
            checks.expect(
                error <= NRMSE_BOUND,
                f"{style} NRMSE {error:.3g} against python exceeds {NRMSE_BOUND}",
            )
        # The paper's accuracy column: error against the Verilog-AMS engine.
        cosim = traces["cosim"]
        for style in ABSTRACTED + ("eln",):
            info[f"nrmse_vs_cosim.{style}"] = nrmse(cosim, traces[style][: len(cosim)])
        base = float(np.median(self.rates.parts["cosim"]))
        for style in ABSTRACTED + ("eln",):
            info[f"speedup_vs_cosim.{style}"] = float(np.median(self.rates.parts[style])) / base


class SensorDsp(PlatformWorkload):
    """A compute-bound FIR firmware on a slow (10 us) abstracted sensor."""

    name = "sensor_dsp"

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.bench = rc_benchmark(1)
        self.stimuli = {"vin": square_stimulus(rng, DSP_TIMESTEP, 30, 50)}
        self.coefficients = [int(value) for value in rng.integers(-64, 128, DSP_TAPS)]

    def styles(self):
        return [("python", DSP_SIM_TIME)]

    def setup(self) -> None:
        circuit = self.bench.circuit()
        self.model = AbstractionFlow(DSP_TIMESTEP).abstract(
            circuit, self.bench.output, name=circuit.name
        ).model
        self.model_class = compile_model_cached(self.model)
        self.firmware = fir_firmware(self.coefficients)
        self.build("python", None)

    def build(self, style, tallies, superblocks: bool = True) -> SmartSystemPlatform:
        platform = SmartSystemPlatform(
            analog_timestep=DSP_TIMESTEP,
            firmware=self.firmware,
            cpu_superblocks=superblocks,
        )
        instance = self.model_class()
        if tallies is not None:
            instance = TimedModel(instance, tallies["analog"])
        platform.attach_analog("python", self.stimuli, model=instance)
        return platform

    def verify(self, checks, info) -> None:
        info["counts"] = self.expected
        timed_result = self.first["python"]
        reference = self.build("python", None, superblocks=False).run(DSP_SIM_TIME)
        checks.expect(
            reference.fingerprint() == timed_result.fingerprint(),
            "superblock run's fingerprint differs from the superblocks-off run",
        )
        checks.expect(
            len(timed_result.uart_output) > 0, "the FIR firmware reported nothing"
        )
        info["uart_chars"] = len(timed_result.uart_output)
        info["instructions_per_unit"] = timed_result.instructions

