"""Performance gates: the wall-clock checks that are not tier-1 tests.

The repository's performance ledger is ``perfbench/`` (see ``BENCHMARK.json``
and ``perfbench/README.md``): every claim about end-to-end speed is judged
there.  This module holds the pass/fail gates that guard individual tiers.
It sits outside tier-1's ``testpaths`` because its verdicts depend on
wall-clock time; run it explicitly::

    PYTHONPATH=src python -m pytest -q benchmarks/test_perf_gates.py

It has eight groups:

* **Committed floors** (``test_committed_floor``): fifteen metrics of four
  smoke-size microbenchmarks (ISS throughput per stepping tier, DE-kernel
  event throughput, a firmware-bound platform, the analog batch kernel on
  NumPy and native C).  A metric fails when it keeps less than half of its
  committed value.  Ten of them are absolute rates, so they are only
  meaningful on a host about as fast as the recording one; the five
  ``*_speedup*`` ratios are machine-relative and carry the gate.  The
  native metrics fail, not skip, when no C toolchain is found.
* **Disabled-tracing ablations** (``*_tracing_disabled_overhead``): the DE
  ticker and the block-stepped ISS stay within 3% of their code with the
  tracing instrumentation stripped out.
* **Table I orderings** (``test_table1_targets_beat_verilog_ams``): on RC1
  every abstracted target beats the Verilog-AMS reference, and the
  generated plain-code model is the fastest target.
* **Table II speed-ups** (``test_table2_cpp_beats_eln``): the generated
  plain-code model beats the SystemC-AMS/ELN solve on each paper component.
* **Table III speed-ups** (``test_table3_cpp_beats_cosim``): the platform
  with the generated model beats Verilog-AMS co-simulation by more than 2x.
* **One abstraction per topology** (``test_chunk_abstraction_beats_a_full_flow_per_scenario``):
  a sweep chunk's abstraction of a 64-scenario RC20 Monte-Carlo, one full
  flow recorded as a tape and one evaluation for the 63 later scenarios,
  is at least 8x faster than a full flow per scenario, with equal models.
* **Stream-fed campaigns** (``test_stream_fed_campaign_beats_push_mode``):
  a serial RC1 ``python`` fault campaign, its ADCs answering from one
  precomputed analog stream per configuration, is at least 1.5x faster
  than the same jobs with an analog ticker, with equal payloads.
* **The CPU burst cap** (``test_default_burst_cap_beats_256_on_compute_bound_firmware``):
  a platform shaped like the benchmark's ``sensor_dsp`` (a 10 us sensor,
  firmware computing longer than 256 instructions per sample) runs faster
  at the default cap than at 256-instruction bursts, with equal
  fingerprints.
"""

from __future__ import annotations

import functools
import inspect
import time
from functools import partial
from typing import Callable

import numpy as np
import pytest

import repro.sim.de.kernel as de_kernel_module
import repro.vp.mips.cpu as mips_cpu_module
from repro.circuits import build_rc_filter, rc_benchmark
from repro.circuits.rc_filter import DEFAULT_CAPACITANCE, DEFAULT_RESISTANCE
from repro.core import AbstractionFlow, abstract_circuit
from repro.core.codegen import NativeGenerator, NumpyGenerator, PythonGenerator, toolchain_error
from repro.core.flow import TapedModel
from repro.experiments import table1, table2, table3
from repro.fault import (
    FaultCampaignRunner,
    FaultCampaignSpec,
    analog_fault_universe,
    digital_fault_universe,
)
from repro.fault.campaign import FaultableCircuitFactory
from repro.experiments.common import (
    PAPER_TABLE1_SIMULATED_TIME,
    PAPER_TABLE2_SIMULATED_TIME,
    PAPER_TABLE3_SIMULATED_TIME,
    PAPER_TIMESTEP,
    prepare_benchmarks,
    scaled_duration,
)
from repro.obs.tracer import TRACER
from repro.sim import Kernel, PeriodicTicker, SquareWave
from repro.sweep import MonteCarloSpec, PlatformSweepRunner
from repro.sweep.runner import _model, abstract_chunk
from repro.vp import Memory, MipsCpu, SmartSystemPlatform, assemble
from repro.vp.firmware import (
    ADC_COUNT_OFFSET,
    ADC_DATA_OFFSET,
    CROSSING_COUNTER_ADDRESS,
    FIRMWARE_STYLE_LOOP,
    threshold_monitor_source,
)
from repro.vp.platform import CPU_BLOCK_CYCLES, _CpuBlockDriver

# -- committed floors -------------------------------------------------------------------

#: Every gated metric's committed value, exactly as recorded at smoke size
#: (CPython 3.11.7, x86_64).  All of them are higher-is-better.
COMMITTED = {
    "iss": {
        "block_instructions_per_second": 3206770.9899683874,
        "block_speedup_vs_step": 4.583580637638815,
        "block_speedup_vs_tick": 10.238556236582342,
        "step_instructions_per_second": 699621.375401464,
        "superblock_instructions_per_second": 18268233.8465566,
        "superblock_speedup_vs_block": 5.246356876228079,
        "tick_instructions_per_second": 313205.38910658134,
    },
    "de_kernel": {
        "events_per_second": 918646.1232198038,
    },
    "platform": {
        "firmware_block_instructions_per_second": 3447631.594838365,
        "firmware_superblock_instructions_per_second": 18064092.52054764,
        "firmware_superblock_speedup": 5.239565778313543,
        "instructions_per_second": 189962.7122137628,
    },
    "analog_batch": {
        "native_speedup_vs_numpy": 19.66646874430684,
        "native_steps_per_second": 21690621.251385335,
        "numpy_steps_per_second": 1102924.0446465234,
    },
}

#: A metric fails when ``measured / committed`` falls below this fraction.
MIN_RETAINED = 0.5

#: The platform's nominal CPU clock period (20 MHz), used by the ISS bench.
CPU_PERIOD = 50e-9

#: Burst size at which the superblock tier amortises its dispatch overhead
#: (the per-burst entry cost is fixed, so longer bursts spend a larger
#: fraction of their time inside the fused loop bodies).
SUPERBLOCK_CYCLES = 1024

#: Burst size the ``iss`` block metrics were committed at (the platform's
#: default cap then); measuring them at it keeps each floor's meaning.
COMMITTED_BLOCK_CYCLES = 256


def best_of(function: Callable[[], object], repeats: int = 3) -> float:
    """Wall-clock seconds of the fastest of ``repeats`` calls to ``function``.

    The *minimum* is the standard estimator for micro-benchmarks: noise from
    scheduling and garbage collection only ever adds time, so the fastest
    observation is the closest to the true cost.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def make_firmware_loop_cpu(superblocks: bool = False) -> MipsCpu:
    """A CPU loaded with :data:`FIRMWARE_STYLE_LOOP` (no peripherals)."""
    memory = Memory(size=64 * 1024)
    memory.load_image(assemble(FIRMWARE_STYLE_LOOP).to_bytes())
    return MipsCpu(memory, superblocks=superblocks)


def iss_throughput(
    instructions: int,
    stepper: str = "block",
    block_cycles: int = COMMITTED_BLOCK_CYCLES,
) -> float:
    """Instructions/second of the ISS on the firmware-style loop.

    ``stepper`` selects the execution model:

    * ``"step"`` — one ``cpu.step()`` call per instruction (the bare
      interpreter, no kernel);
    * ``"tick"`` — one instruction per DE-kernel event (the historical
      per-tick platform integration);
    * ``"block"`` — ``block_cycles``-instruction bursts per DE-kernel event
      (the block-stepped integration, superblock compilation off);
    * ``"superblock"`` — the same bursts with the superblock compiler fusing
      hot basic-block runs into specialized Python callables.
    """
    if stepper == "step":
        cpu = make_firmware_loop_cpu()

        def run() -> None:
            cpu.reset()
            step = cpu.step
            for _ in range(instructions):
                step()

        return instructions / best_of(run)
    if stepper in ("tick", "block", "superblock"):
        cycles = 1 if stepper == "tick" else block_cycles
        superblocks = stepper == "superblock"
        duration = instructions * CPU_PERIOD

        def run() -> None:
            cpu = make_firmware_loop_cpu(superblocks=superblocks)
            kernel = Kernel()
            _CpuBlockDriver(kernel, "cpu.clock", cpu, CPU_PERIOD, cycles)
            kernel.run(duration)
            assert cpu.instruction_count == instructions, cpu.instruction_count

        return instructions / best_of(run)
    raise ValueError(f"unknown stepper {stepper!r}")


def bench_iss() -> dict[str, float]:
    """ISS throughput: bare interpreter vs per-tick vs block-stepped.

    ``block_speedup_vs_tick`` compares the same firmware, the same kernel
    and the same retired instruction count; only the stepping granularity
    differs.
    """
    instructions = 60_000
    step_rate = iss_throughput(instructions, "step")
    tick_rate = iss_throughput(instructions, "tick")
    block_rate = iss_throughput(instructions, "block")
    # The superblock tier is compared against block stepping *at the same
    # burst size* so the ratio isolates the compiler, not the burst length.
    # Each timed run starts from a fresh CPU and therefore pays the heat
    # tracking and compile once; the workload is larger so the steady state
    # dominates the ratio the way it dominates real campaigns.
    sb_instructions = 4 * instructions
    block_long_rate = iss_throughput(sb_instructions, "block", SUPERBLOCK_CYCLES)
    superblock_rate = iss_throughput(
        sb_instructions, "superblock", SUPERBLOCK_CYCLES
    )
    return {
        "step_instructions_per_second": step_rate,
        "tick_instructions_per_second": tick_rate,
        "block_instructions_per_second": block_rate,
        "superblock_instructions_per_second": superblock_rate,
        "block_speedup_vs_tick": block_rate / tick_rate,
        "block_speedup_vs_step": block_rate / step_rate,
        "superblock_speedup_vs_block": superblock_rate / block_long_rate,
    }


def bench_de_kernel() -> dict[str, float]:
    """Raw event throughput of the discrete-event kernel (periodic ticker)."""
    events = 20_000
    period = CPU_PERIOD

    def run() -> None:
        kernel = Kernel()
        ticks = [0]

        def tick(now: float) -> None:
            ticks[0] += 1

        PeriodicTicker(kernel, "tick", period, tick)
        kernel.run(events * period)
        assert ticks[0] == events

    return {"events_per_second": events / best_of(run)}


def bench_platform() -> dict[str, float]:
    """A firmware-bound smart-system run (python-style analog integration)."""
    timestep = 50e-9
    duration = 200e-6
    model = abstract_circuit(build_rc_filter(1), "out", timestep)

    def run() -> int:
        platform = SmartSystemPlatform(
            firmware=threshold_monitor_source(100), analog_timestep=timestep
        )
        platform.attach_analog_python(model, {"vin": SquareWave(period=40e-6)})
        result = platform.run(duration)
        return result.instructions

    instructions = run()
    wall = best_of(run)

    # Firmware-bound configuration: the CPU spins in the RAM-only
    # firmware-style loop (no peripheral polling) and the analog subsystem
    # ticks at a realistic sensor rate (10 us, not one event per CPU cycle),
    # so the run measures the execution tier itself inside the full platform.
    firmware_duration = 50e-3
    firmware_timestep = 10e-6
    firmware_model = abstract_circuit(build_rc_filter(1), "out", firmware_timestep)

    def firmware_run(superblocks: bool) -> "tuple[int, float]":
        def run_once() -> int:
            platform = SmartSystemPlatform(
                firmware=FIRMWARE_STYLE_LOOP,
                analog_timestep=firmware_timestep,
                cpu_block_cycles=SUPERBLOCK_CYCLES,
                cpu_superblocks=superblocks,
            )
            platform.attach_analog_python(
                firmware_model, {"vin": SquareWave(period=40e-6)}
            )
            return platform.run(firmware_duration).instructions

        return run_once(), best_of(run_once)

    firmware_instructions, block_wall = firmware_run(False)
    superblock_instructions, superblock_wall = firmware_run(True)
    assert firmware_instructions == superblock_instructions, (
        firmware_instructions,
        superblock_instructions,
    )
    firmware_block_rate = firmware_instructions / block_wall
    firmware_superblock_rate = firmware_instructions / superblock_wall
    return {
        "instructions_per_second": instructions / wall,
        "firmware_block_instructions_per_second": firmware_block_rate,
        "firmware_superblock_instructions_per_second": firmware_superblock_rate,
        "firmware_superblock_speedup": (
            firmware_superblock_rate / firmware_block_rate
        ),
    }


def bench_analog_batch() -> dict[str, float]:
    """Batch ``step_batch`` throughput: compiled C kernel vs vectorized NumPy.

    Without a C toolchain only the NumPy rate is measured, and the native
    metrics are absent.
    """
    timestep = 50e-9
    order = 8
    scenarios = 64
    steps = 500
    model = abstract_circuit(build_rc_filter(order), "out", timestep)
    models = [model] * scenarios

    def batch_rate(instance) -> float:
        drive = np.linspace(0.0, 1.0, scenarios)
        step_batch = instance.step_batch

        def run() -> None:
            instance.reset()
            for index in range(steps):
                step_batch(drive, (index + 1) * timestep)

        return (steps * scenarios) / best_of(run)

    numpy_rate = batch_rate(NumpyGenerator().generate_batch(models).instantiate())
    metrics = {"numpy_steps_per_second": numpy_rate}
    if toolchain_error() is None:
        native_rate = batch_rate(
            NativeGenerator().generate_batch(models).instantiate()
        )
        metrics["native_steps_per_second"] = native_rate
        metrics["native_speedup_vs_numpy"] = native_rate / numpy_rate
    return metrics


BENCHMARKS = {
    "iss": bench_iss,
    "de_kernel": bench_de_kernel,
    "platform": bench_platform,
    "analog_batch": bench_analog_batch,
}


@functools.lru_cache(maxsize=None)
def measured(name: str) -> dict[str, float]:
    """One benchmark's metrics, measured once per session."""
    return BENCHMARKS[name]()


@pytest.mark.parametrize(
    ("name", "metric"),
    [(name, metric) for name, metrics in COMMITTED.items() for metric in metrics],
)
def test_committed_floor(name, metric):
    """The metric keeps at least half of its committed value."""
    metrics = measured(name)
    assert metric in metrics, (
        f"{name}.{metric} was not measured: native toolchain "
        f"unavailable ({toolchain_error()})"
    )
    committed = COMMITTED[name][metric]
    retained = metrics[metric] / committed
    assert retained >= MIN_RETAINED, (
        f"{name}.{metric}: {metrics[metric]:.4g} vs committed "
        f"{committed:.4g} ({retained * 100.0:.0f}% retained, floor "
        f"{MIN_RETAINED * 100.0:.0f}%)"
    )


# -- disabled-tracing ablations ---------------------------------------------------------
#
# repro.obs promises that *disabled* tracing is near-free on the hot paths.
# The seed (pre-observability) code is reconstructed at runtime by recompiling
# the instrumented modules with the known instrumentation statements stripped,
# then raced against the shipped disabled-tracing path, interleaved on the
# same workload.  The stripped statements are exactly the instrumentation's
# hot-path additions; everything else in the module source is shared, so the
# measured delta is the instrumentation guard cost and nothing else.

#: Timesteps per DE-ticker measurement.
STEPS = 20_000

#: Instructions per ISS micro-benchmark measurement (smoke-friendly: one
#: measurement is a few tens of milliseconds).
ISS_INSTRUCTIONS = 100_000

#: Exact (whitespace-stripped) statements the observability layer added to
#: the hot paths; removing them reconstructs the seed code.  The ISS's
#: ``invalidations`` local is not among them: the superblock calling
#: convention passes it in and reads it back, so it is no longer
#: instrumentation-only.
_TRACE_STATEMENTS = frozenset(
    {
        "tracer = TRACER",
        "trace = tracer.enabled",
        "misses = 0",
        "misses += 1",
        "self.block_count += 1",
        "self.decode_miss_count += misses",
        "span = decoded[first : last + 1]",
        "invalidated = sum(1 for entry in span if entry is not None)",
        "self.decode_invalidation_count += invalidated",
    }
)

#: Permitted slowdown of the shipped disabled-tracing path vs the seed.
_MAX_DISABLED_SLOWDOWN = 0.03


def _seed_variant(module) -> dict:
    """Recompile ``module`` with the tracing instrumentation stripped out.

    Removes every statement in :data:`_TRACE_STATEMENTS`, every line that
    mentions ``TRACER``, and every ``if trace``-guarded suite, then executes
    the surgically-reduced source in a fresh namespace (relative imports
    resolve against the real package).  The result is the seed's hot-path
    code, byte-for-byte minus the instrumentation.
    """
    out: list[str] = []
    skip_indent = None
    for line in inspect.getsource(module).splitlines():
        stripped = line.strip()
        if skip_indent is not None:
            indent = len(line) - len(line.lstrip())
            if stripped and indent <= skip_indent:
                if stripped == "else:" and indent == skip_indent:
                    # The untraced arm of an `if trace:`/`else:` pair: keep its
                    # suite, behind a constant-folded `if True:` header.
                    out.append(line[:indent] + "if True:")
                    skip_indent = None
                    continue
                skip_indent = None
            else:
                continue
        if stripped in _TRACE_STATEMENTS or "TRACER" in line:
            continue
        if stripped.startswith("if trace"):
            if stripped.endswith(":"):
                skip_indent = len(line) - len(line.lstrip())
            continue
        out.append(line)
    namespace = {
        "__name__": module.__name__ + "_seed",
        "__package__": module.__package__,
        "__builtins__": __builtins__,
    }
    exec(compile("\n".join(out), f"{module.__file__}<seed>", "exec"), namespace)
    return namespace


def _interleaved_best(run_seed, run_product, repeats: int = 7) -> "tuple[float, float]":
    """Fastest wall time of each runner, measured strictly alternating.

    Interleaving makes the pair share any frequency/thermal drift; the
    minimum estimator then discards scheduling noise (see ``best_of``).
    """
    best_seed = best_product = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_seed()
        best_seed = min(best_seed, time.perf_counter() - start)
        start = time.perf_counter()
        run_product()
        best_product = min(best_product, time.perf_counter() - start)
    return best_seed, best_product


def _assert_disabled_overhead(name: str, run_seed, run_product, attempts: int = 3):
    """Assert the product runner stays within 3% of the seed runner.

    Shared machines jitter by more than 3%, and jitter can only *inflate* a
    measurement — so a clean measurement on any attempt is proof the guard is
    cheap, and only consistently-slow measurements fail the test.
    """
    seed_seconds = product_seconds = 0.0
    for _ in range(attempts):
        seed_seconds, product_seconds = _interleaved_best(run_seed, run_product)
        if product_seconds / seed_seconds - 1.0 < _MAX_DISABLED_SLOWDOWN:
            return
    slowdown = product_seconds / seed_seconds - 1.0
    raise AssertionError(
        f"{name}: disabled tracing costs {slowdown * 100.0:.1f}% vs the seed "
        f"(seed {seed_seconds * 1e3:.2f} ms, instrumented "
        f"{product_seconds * 1e3:.2f} ms) — the guard must stay "
        f"< {_MAX_DISABLED_SLOWDOWN * 100.0:.0f}%"
    )


def _ticker_workload(kernel_class):
    def run():
        kernel = kernel_class()
        counter = {"ticks": 0}
        PeriodicTicker(
            kernel,
            "tick",
            PAPER_TIMESTEP,
            lambda now: counter.__setitem__("ticks", counter["ticks"] + 1),
        )
        kernel.run(STEPS * PAPER_TIMESTEP)
        assert counter["ticks"] == STEPS

    return run


def test_de_ticker_tracing_disabled_overhead():
    """Disabled tracing adds <3% to the DE ticker vs the seed kernel."""
    assert not TRACER.enabled, "the gates run with tracing disabled"
    seed_kernel_class = _seed_variant(de_kernel_module)["Kernel"]
    _assert_disabled_overhead(
        "de-ticker", _ticker_workload(seed_kernel_class), _ticker_workload(Kernel)
    )


def _block_workload(cpu):
    def run():
        cpu.reset()
        done = 0
        while done < ISS_INSTRUCTIONS:
            done += cpu.run_block(ISS_INSTRUCTIONS - done)
        assert cpu.instruction_count >= ISS_INSTRUCTIONS

    return run


def test_iss_block_tracing_disabled_overhead():
    """The instrumented block-stepped ISS stays within 3% of the seed ISS."""
    assert not TRACER.enabled, "the gates run with tracing disabled"
    seed_cpu_class = _seed_variant(mips_cpu_module)["MipsCpu"]
    image = assemble(FIRMWARE_STYLE_LOOP).to_bytes()

    def build(cpu_class):
        # Superblocks off: after a few repeats a compiled superblock would
        # run each whole burst, and the block loop would go unmeasured.
        memory = Memory(size=64 * 1024)
        memory.load_image(image)
        return cpu_class(memory, superblocks=False)

    _assert_disabled_overhead(
        "iss-block",
        _block_workload(build(seed_cpu_class)),
        _block_workload(build(mips_cpu_module.MipsCpu)),
    )


# -- paper-table speed-ups --------------------------------------------------------------

#: The paper's components, in its row order.
COMPONENTS = ("2IN", "RC1", "RC20", "OA")


@pytest.fixture(scope="module")
def prepared_models():
    """Abstract the four paper components once for the module."""
    return {prepared.name: prepared for prepared in prepare_benchmarks()}


def test_table1_targets_beat_verilog_ams(prepared_models):
    """Every Table I target is faster than the Verilog-AMS reference, and
    the generated plain-code model is the fastest, as in the paper.

    RC1 at Table I's default scaled duration (20,000 analog steps), where
    the reference run takes seconds and the fastest target tens of
    milliseconds; at a few hundred steps each target takes only
    milliseconds and the orderings are noise.
    """
    rows = table1.run_component(
        prepared_models["RC1"], scaled_duration(PAPER_TABLE1_SIMULATED_TIME)
    )
    assert rows[0].target == "Verilog-AMS"
    for row in rows[1:]:
        assert row.speedup is not None and row.speedup > 1.0
    # The generated plain-code model is the fastest target, as in the paper.
    assert min(rows[1:], key=lambda row: row.simulation_time).target == "C++"


@pytest.mark.parametrize("component", COMPONENTS)
def test_table2_cpp_beats_eln(prepared_models, component):
    """The generated plain-code model is faster than the ELN solve.

    Table II's 10 s of simulated time is millions of analog steps even at
    the default time scale, so it is divided by a further 10; the speed-up
    ratio does not depend on the absolute duration.  For RC20 the generated
    flat Python code merely matches ELN's vectorised solve, so only rough
    parity is required there.
    """
    duration = scaled_duration(PAPER_TABLE2_SIMULATED_TIME) / 10.0
    rows = table2.run_component(prepared_models[component], duration)
    speedup = next(row.speedup for row in rows if row.target == "C++")
    minimum = 0.5 if component == "RC20" else 1.0
    assert speedup > minimum, (
        f"{component}: C++ runs {speedup:.2f}x the ELN speed "
        f"(must exceed {minimum}x)"
    )


@pytest.mark.parametrize("component", COMPONENTS)
def test_table3_cpp_beats_cosim(prepared_models, component):
    """The platform with the generated model beats co-simulation by >2x.

    The platform simulates both the CPU and the analog device, so the
    default time scale is reduced a further 4x.  The digital workload runs
    in every integration style.
    """
    duration = (
        scaled_duration(PAPER_TABLE3_SIMULATED_TIME, minimum_steps=1000) / 4.0
    )
    rows, results = table3.run_component(prepared_models[component], duration)
    for style, result in results.items():
        assert result.instructions > 0 and result.analog_samples > 0, style
    speedup = next(row.speedup for row in rows if row.target == "C++")
    assert speedup > 2.0, (
        f"{component}: the C++ platform runs {speedup:.2f}x the "
        f"co-simulation speed (must exceed 2x)"
    )


# -- one abstraction per topology --------------------------------------------------------

#: The least speed-up of abstracting a Monte-Carlo chunk through one
#: recorded full flow over a full flow per scenario.
MIN_CHUNK_SPEEDUP = 8.0


def test_chunk_abstraction_beats_a_full_flow_per_scenario():
    """Abstracting a 64-scenario RC20 Monte-Carlo chunk through
    :func:`abstract_chunk` (one full flow recorded as a tape, one evaluation
    over the other 63) is at least 8x faster than
    ``AbstractionFlow.abstract`` scenario by scenario, with equal models.

    Both sides build every circuit from its parameters, in one process,
    interleaved, best of 3; the ratio is machine-relative.
    """
    factory = partial(build_rc_filter, 20)
    scenarios = MonteCarloSpec(
        nominal={"resistance": DEFAULT_RESISTANCE, "capacitance": DEFAULT_CAPACITANCE},
        tolerances={"resistance": 0.05, "capacitance": 0.1},
        samples=64,
        seed=2016,
    ).expand()
    models = {}

    def full_flows() -> None:
        flow = AbstractionFlow(PAPER_TIMESTEP)
        models["full"] = [
            flow.abstract(factory(**scenario.params), "out").model for scenario in scenarios
        ]

    def chunk() -> None:
        models["chunk"] = abstract_chunk(
            [factory(**scenario.params) for scenario in scenarios], ["out"], PAPER_TIMESTEP
        )

    full, chunked = _interleaved_best(full_flows, chunk, repeats=3)
    assert all(isinstance(model, TapedModel) for model in models["chunk"][1:])
    generator = PythonGenerator()
    assert [generator.generate(_model(model)).source for model in models["chunk"]] == [
        generator.generate(model).source for model in models["full"]
    ]
    speedup = full / chunked
    assert speedup >= MIN_CHUNK_SPEEDUP, (
        f"the chunk abstracts 64 RC20 scenarios {speedup:.2f}x faster than a "
        f"full flow each ({1e3 * chunked:.0f} ms vs {1e3 * full:.0f} ms); "
        f"the floor is {MIN_CHUNK_SPEEDUP}x"
    )


# -- stream-fed campaigns ---------------------------------------------------------------

#: The least speed-up of a serial ``python`` fault campaign, its ADCs fed
#: from precomputed analog streams, over the same jobs in push mode.
MIN_STREAM_CAMPAIGN_SPEEDUP = 1.5


def test_stream_fed_campaign_beats_push_mode():
    """A serial RC1 campaign through :class:`FaultCampaignRunner` is at least
    1.5x faster than its jobs through a push-mode ``PlatformSweepRunner``.

    The campaign is the golden run, the analog fault universe and the
    digital one at two activation times, 100 us each.  Both sides run in one
    process, interleaved, best of 3; the ratio is machine-relative, and the
    payloads must be equal.  Jitter only inflates a measurement, so one
    attempt of three reaching the floor passes (as in
    ``_assert_disabled_overhead``).
    """
    bench = rc_benchmark(1)
    stimuli = {"vin": SquareWave(period=4e-5, delay=PAPER_TIMESTEP / 2.0)}
    spec = FaultCampaignSpec(
        faults=[*analog_fault_universe(bench.circuit()), *digital_fault_universe()],
        activation_times=(30e-6, 70e-6),
    )
    runs = spec.expand()
    analog = {run.fault.name: run.fault for run in runs if run.fault is not None}
    duration = 100e-6
    payloads = {}

    def streamed() -> None:
        runner = FaultCampaignRunner(bench.build, "out", stimuli, progress=False)
        payloads["stream"] = runner.run(spec, duration).results

    def pushed() -> None:
        runner = PlatformSweepRunner(
            FaultableCircuitFactory(bench.build, analog),
            "out",
            stimuli,
            capture_errors=True,
            progress=False,
        )
        payloads["push"] = runner.run(runs, duration, firmwares=spec.firmware_table()).results

    for _ in range(3):
        push, stream = _interleaved_best(pushed, streamed, repeats=3)
        assert [run.to_payload() for run in payloads["stream"]] == [
            run.to_payload() for run in payloads["push"]
        ]
        speedup = push / stream
        if speedup >= MIN_STREAM_CAMPAIGN_SPEEDUP:
            return
    raise AssertionError(
        f"the stream-fed campaign runs {len(runs)} jobs {speedup:.2f}x faster "
        f"than push mode ({1e3 * stream:.0f} ms vs {1e3 * push:.0f} ms); the "
        f"floor is {MIN_STREAM_CAMPAIGN_SPEEDUP}x"
    )


# -- the CPU burst cap ------------------------------------------------------------------

#: The least speed-up of a compute-bound platform at the default burst cap
#: over 256-instruction bursts, the cap before it: about halfway between 1x
#: and the median of 12 runs on the development container (2.08x, range
#: 1.92-2.38x).
MIN_BURST_CAP_SPEEDUP = 1.5

#: Firmware that works 384 instructions on every ADC sample, a
#: multiply-accumulate loop that spills its sum to RAM.
COMPUTE_BOUND_FIRMWARE = f"""
        .text
main:   lui   $t0, 0x1000
        li    $s0, 0
        li    $s2, {CROSSING_COUNTER_ADDRESS:#x}
poll:   lw    $t5, {ADC_COUNT_OFFSET:#x}($t0)
        beq   $t5, $s0, poll
        move  $s0, $t5
        lw    $t1, {ADC_DATA_OFFSET:#x}($t0)
        li    $t2, 64
        li    $t3, 0
mac:    mult  $t1, $t2
        mflo  $t4
        addu  $t3, $t3, $t4
        sw    $t3, 0($s2)
        addiu $t2, $t2, -1
        bgtz  $t2, mac
        j     poll
"""


def test_default_burst_cap_beats_256_on_compute_bound_firmware():
    """20 ms of a 10 us RC1 sensor read by :data:`COMPUTE_BOUND_FIRMWARE`
    run faster at the default burst cap than at 256-instruction bursts.

    A sample arrives every 200 CPU cycles and the firmware works 384 on
    each, so bursts end at the cap, as in the benchmark's ``sensor_dsp``.
    Both caps run in one process, interleaved, best of 3, with equal
    fingerprints; the ratio is machine-relative.  One attempt of three
    reaching the floor passes (as in ``_assert_disabled_overhead``).
    """
    timestep = 10e-6
    model = abstract_circuit(build_rc_filter(1), "out", timestep)
    stimuli = {"vin": SquareWave(period=40 * timestep, delay=timestep / 2.0)}
    fingerprints = {}

    def runner(cycles: int) -> Callable[[], None]:
        def run() -> None:
            platform = SmartSystemPlatform(
                analog_timestep=timestep,
                firmware=COMPUTE_BOUND_FIRMWARE,
                cpu_block_cycles=cycles,
            )
            platform.attach_analog_python(model, stimuli)
            fingerprints[cycles] = platform.run(20e-3).fingerprint()

        return run

    for _ in range(3):
        capped, default = _interleaved_best(runner(256), runner(CPU_BLOCK_CYCLES), repeats=3)
        assert fingerprints[256] == fingerprints[CPU_BLOCK_CYCLES]
        speedup = capped / default
        if speedup >= MIN_BURST_CAP_SPEEDUP:
            return
    raise AssertionError(
        f"the default burst cap ({CPU_BLOCK_CYCLES}) runs compute-bound firmware "
        f"{speedup:.2f}x faster than 256-instruction bursts ({1e3 * default:.0f} ms "
        f"vs {1e3 * capped:.0f} ms); the floor is {MIN_BURST_CAP_SPEEDUP}x"
    )
