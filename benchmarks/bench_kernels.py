"""Micro-benchmarks of the simulation substrates (ablation support).

These are not paper tables; they quantify where the time goes in each engine
(the per-step cost of the DE kernel, the TDF cluster, the ELN solve, the
reference engine's device evaluation, and the generated step function), which
is the data behind the DESIGN.md discussion of why the ordering of Tables I-III
comes out the way it does.
"""

from __future__ import annotations

import inspect
import time

import pytest

import repro.sim.de.kernel as de_kernel_module
import repro.vp.mips.cpu as mips_cpu_module
from repro.circuits import build_rc_filter
from repro.core import abstract_circuit
from repro.core.codegen import compile_model
from repro.experiments.common import PAPER_TIMESTEP
from repro.obs.tracer import TRACER
from repro.perf.suite import bench_iss, make_firmware_loop_cpu
from repro.sim import ElnModel, Kernel, PeriodicTicker, ReferenceAmsSimulator, Signal, SquareWave
from repro.vp import Memory, assemble

STEPS = 20_000

#: Instructions per ISS micro-benchmark measurement (smoke-friendly: one
#: measurement is a few tens of milliseconds).
ISS_INSTRUCTIONS = 100_000


@pytest.fixture(scope="module")
def compiled_rc20():
    return compile_model(abstract_circuit(build_rc_filter(20), "out", PAPER_TIMESTEP))


def test_generated_step_function(benchmark, compiled_rc20):
    """Cost of the bare generated model (the 'C++' inner loop)."""
    instance = compiled_rc20()

    def run():
        step = instance.step
        for _ in range(STEPS):
            step(1.0)

    benchmark(run)


def test_eln_step(benchmark):
    """Cost of the per-step conservative solution (ELN)."""
    model = ElnModel(build_rc_filter(20), PAPER_TIMESTEP)

    def run():
        for _ in range(STEPS // 10):
            model.step({"vin": 1.0})

    benchmark(run)


def test_reference_step(benchmark):
    """Cost of the reference engine's evaluate-and-solve step (Verilog-AMS)."""
    simulator = ReferenceAmsSimulator(build_rc_filter(20), PAPER_TIMESTEP)

    def run():
        for _ in range(STEPS // 100):
            simulator.step({"vin": 1.0})

    benchmark(run)


def test_de_kernel_event_throughput(benchmark):
    """Raw event-processing throughput of the discrete-event kernel."""

    def run():
        kernel = Kernel()
        counter = {"ticks": 0}
        PeriodicTicker(
            kernel, "tick", PAPER_TIMESTEP, lambda now: counter.__setitem__("ticks", counter["ticks"] + 1)
        )
        kernel.run(STEPS * PAPER_TIMESTEP)
        return counter["ticks"]

    ticks = benchmark(run)
    assert ticks == STEPS


def test_de_kernel_event_heavy_workload(benchmark):
    """Delta-cycle and static-sensitivity cost under a platform-like load.

    One ticker writes a signal every timestep; eight statically sensitive
    method processes wake on every change.  This is the pattern the virtual
    platform stresses (CPU clock + analog ticker + ADC sampler chains), so it
    is the workload the kernel's slot-reuse/dispatch optimizations target.
    """
    fanout = 8

    def run():
        kernel = Kernel()
        signal = Signal(kernel, 0.0, "load")
        wakeups = {"count": 0}
        for _ in range(fanout):
            signal.changed.add_static_method(
                lambda: wakeups.__setitem__("count", wakeups["count"] + 1)
            )
        ticks = {"count": 0}

        def drive(now: float) -> None:
            ticks["count"] += 1
            signal.write(float(ticks["count"]))

        PeriodicTicker(kernel, "drive", PAPER_TIMESTEP, drive)
        kernel.run((STEPS // 2) * PAPER_TIMESTEP)
        return wakeups["count"]

    wakeups = benchmark(run)
    assert wakeups == (STEPS // 2) * fanout


def test_iss_per_step_interpreter(benchmark):
    """Instructions/sec of the bare ISS, one ``step()`` call per instruction."""
    cpu = make_firmware_loop_cpu()

    def run():
        cpu.reset()
        step = cpu.step
        for _ in range(ISS_INSTRUCTIONS):
            step()

    benchmark(run)
    assert cpu.instruction_count >= ISS_INSTRUCTIONS


def test_iss_block_throughput(benchmark):
    """Instructions/sec of the block-stepped ISS (``run_block`` bursts)."""
    cpu = make_firmware_loop_cpu()

    def run():
        cpu.reset()
        done = 0
        while done < ISS_INSTRUCTIONS:
            done += cpu.run_block(ISS_INSTRUCTIONS - done)

    benchmark(run)


def test_iss_block_speedup_meets_target():
    """The tentpole's acceptance metric, measured rather than asserted blindly.

    Block-stepping must deliver >= 5x the instructions/sec of the historical
    one-instruction-per-DE-event integration on a firmware-style loop (same
    kernel, same retired instruction count; see ``repro.perf.suite``).
    """
    record = bench_iss(smoke=True)
    speedup = record.metrics["block_speedup_vs_tick"]
    assert speedup >= 5.0, (
        f"block stepping delivers only {speedup:.2f}x over the per-tick "
        f"interpreter (metrics: {record.metrics})"
    )


def test_iss_block_and_tick_retire_identically():
    """Block mode is a pure speedup: identical architectural outcomes."""
    instructions = 20_000
    outcomes = []
    for stepper in ("tick", "block"):
        # iss_throughput drives a fresh CPU through the kernel; replicate its
        # setup here to capture the final architectural state.
        from repro.perf.suite import CPU_PERIOD
        from repro.vp.platform import _CpuBlockDriver

        cpu = make_firmware_loop_cpu()
        kernel = Kernel()
        _CpuBlockDriver(
            kernel, "cpu.clock", cpu, CPU_PERIOD, 1 if stepper == "tick" else 256
        )
        kernel.run(instructions * CPU_PERIOD)
        outcomes.append(
            (cpu.instruction_count, cpu.pc, tuple(cpu.registers), cpu.hi, cpu.lo)
        )
    assert outcomes[0] == outcomes[1]


def test_square_wave_source(benchmark):
    """Cost of evaluating the stimulus waveform (shared by every engine)."""
    wave = SquareWave(period=1e-3)

    def run():
        total = 0.0
        for index in range(STEPS):
            total += wave(index * PAPER_TIMESTEP)
        return total

    benchmark(run)


# -- tracing-overhead ablation ---------------------------------------------------------
#
# repro.obs promises that *disabled* tracing is near-free on the hot paths.
# The seed (pre-observability) code is reconstructed at runtime by recompiling
# the instrumented modules with the known instrumentation statements stripped,
# then raced against the shipped disabled-tracing path, interleaved on the
# same workload.  The stripped statements are exactly the PR's hot-path
# additions; everything else in the module source is shared, so the measured
# delta is the instrumentation guard cost and nothing else.

#: Exact (whitespace-stripped) statements the observability PR added to the
#: hot paths; removing them reconstructs the seed code.  The ISS's
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
    assert not TRACER.enabled, "tier-1 benchmarks run with tracing disabled"
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
    assert not TRACER.enabled, "tier-1 benchmarks run with tracing disabled"
    from repro.perf.suite import FIRMWARE_STYLE_LOOP

    seed_cpu_class = _seed_variant(mips_cpu_module)["MipsCpu"]
    image = assemble(FIRMWARE_STYLE_LOOP).to_bytes()

    def build(cpu_class):
        memory = Memory(size=64 * 1024)
        memory.load_image(image)
        return cpu_class(memory)

    _assert_disabled_overhead(
        "iss-block",
        _block_workload(build(seed_cpu_class)),
        _block_workload(build(mips_cpu_module.MipsCpu)),
    )
