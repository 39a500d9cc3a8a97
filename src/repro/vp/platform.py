"""The smart-system virtual platform (paper Figure 1 and Section V.B).

:class:`SmartSystemPlatform` assembles the digital subsystem — a MIPS CPU
executing firmware from RAM, an APB bus, a UART and the ADC bridge — on top
of the discrete-event kernel, and offers one ``attach_analog_*`` method per
analog integration style evaluated in Table III:

* ``attach_analog_python`` — the generated C++/Python model called directly
  (the paper's pure-C++ integration);
* ``attach_analog_de`` — the generated model wrapped as a SystemC-DE module;
* ``attach_analog_tdf`` — the generated model inside a TDF cluster bridged to
  the DE kernel;
* ``attach_analog_eln`` — the conservative ELN solver embedded in the kernel;
* ``attach_analog_cosim`` — co-simulation with the reference Verilog-AMS
  engine through the marshalled bridge (the pre-abstraction configuration).

``attach_analog_stream`` is the ``python`` style without a ticker: the ADC
answers from the samples :func:`python_stream` computed ahead of the run.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from heapq import heappush
from typing import Callable, Mapping

from ..core.signalflow import SignalFlowModel
from ..errors import PlatformError
from ..network.circuit import Circuit
from ..obs.tracer import TRACER
from ..sim.ams import ReferenceAmsSimulator
from ..sim.cosim import AnalogCosimServer, CoSimulationBridge
from ..sim.de import Kernel, Module, PeriodicTicker, Signal
from ..sim.de.simtime import RESOLUTION, quantize
from ..sim.eln import ElnModel
from ..sim.integration import (
    DeSignalFlowModule,
    DeSourceModule,
    ElnDeModule,
    TdfDeBridge,
    TdfSignalFlowModule,
    TdfSourceModule,
)
from ..sim.runners import _instantiate
from ..sim.tdf import TdfCluster, TdfModule
from .adc_bridge import AdcBridge, AnalogStream, StreamAdcBridge
from .apb import ApbBus
from .firmware import (
    ADC_BASE,
    CROSSING_COUNTER_ADDRESS,
    PERIPHERAL_BASE,
    UART_BASE,
    default_firmware,
)
from .memory import Memory
from .mips.assembler import assemble
from .mips.cpu import MipsCpu
from .uart import Uart

Stimuli = Mapping[str, Callable[[float], float]]

#: Short keys of the analog integration styles accepted by
#: :meth:`SmartSystemPlatform.attach_analog`, in Table III's row order
#: (co-simulation first — the paper's pre-abstraction baseline).
ANALOG_STYLES = ("cosim", "eln", "tdf", "de", "python")
#: The styles that integrate the abstracted signal-flow model; the others
#: solve the conservative circuit.
ABSTRACTED_STYLES = ("tdf", "de", "python")


@dataclass
class PlatformRunResult:
    """Statistics collected by :meth:`SmartSystemPlatform.run`."""

    simulated_time: float
    instructions: int
    bus_transactions: int
    uart_output: str
    analog_samples: int
    crossings_reported: int
    analog_style: str
    extra: dict[str, float] = field(default_factory=dict)
    #: Every ADC sample in arrival order, when the platform was built with
    #: ``record_analog=True`` (used for cross-style NRMSE comparisons).
    analog_trace: list[float] | None = None
    #: ``"ErrorType: message"`` when the run was cut short by a platform
    #: error (an injected fault crashing the CPU, a bus violation);
    #: ``None`` for a run that reached its full duration.
    crashed: str | None = None

    def fingerprint(self) -> tuple:
        """The deterministic software-visible outcome of the run.

        Two runs of the same scenario must produce equal fingerprints no
        matter where they executed (serial loop, multiprocessing worker) —
        this is what the platform sweep layer's equivalence guarantee checks.
        """
        return (
            self.instructions,
            self.bus_transactions,
            self.uart_output,
            self.analog_samples,
            self.crossings_reported,
            self.crashed,
            self.analog_style,
        )

    def to_payload(self) -> dict:
        """A JSON-serializable rendering that round-trips bit-identically.

        Every field is a Python primitive (the analog trace is a list of
        floats, which JSON renders shortest-round-trip exact), so a result
        committed to a :class:`~repro.store.RunStore` and loaded back
        compares equal — same fingerprint, same trace bits.  The two
        containers are copied one level deep, as their items are immutable;
        ``dataclasses.asdict`` would deep-copy the trace one float at a time.
        """
        payload = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        payload["extra"] = dict(self.extra)
        if self.analog_trace is not None:
            payload["analog_trace"] = list(self.analog_trace)
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "PlatformRunResult":
        """Rebuild a result from :meth:`to_payload` output (store records)."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise PlatformError(
                f"platform run record carries unknown fields {unknown}"
            )
        return cls(**{name: payload[name] for name in payload})


#: Default cap on the instructions :class:`_CpuBlockDriver` retires per
#: kernel event.  Any cap gives identical runs, crashed ones included;
#: compute-bound firmware runs faster with larger ones (see "Basic-block
#: stepping" in ``docs/performance.md``).
CPU_BLOCK_CYCLES = 4096

#: Bytes of RAM, mapped at address 0: the firmware image and its data.
RAM_SIZE = 64 * 1024


class _CpuBlockDriver(Module):
    """Advances the CPU one instruction *block* per kernel event.

    The classic integration steps the CPU through a :class:`PeriodicTicker`,
    one instruction per clock event — millions of heap operations per
    simulated millisecond.  This driver instead asks the predecoded ISS for a
    burst of up to ``block_cycles`` instructions and schedules its next
    wake-up exactly ``executed`` clock cycles later on the same absolute
    cycle grid the ticker would have used.

    Timing equivalence with the one-instruction-per-tick model is preserved
    because

    * :meth:`~repro.vp.mips.cpu.MipsCpu.run_block` yields back *before* any
      peripheral-window load/store that is not the first instruction of a
      block, so every UART/APB/ADC access executes as the first instruction
      of an event scheduled on precisely its own clock cycle;
    * that event counts as scheduled at the previous clock cycle, as the
      per-tick model's would be, so at an instant it shares with other
      events (an analog tick pushing an ADC sample) it fires in the same
      order as in the per-tick model;
    * instructions between peripheral accesses touch only CPU-private state
      (registers and RAM), so executing them early within one kernel event
      is unobservable;
    * the block budget is clamped to the kernel's ``end_time`` horizon so a
      bounded ``run(duration)`` retires exactly as many instructions as the
      per-tick model would;
    * an instruction that raises after the burst retired others raises again
      from an event on its own clock cycle, keyed as its per-tick wake, so
      everything the per-tick model fires before the crash fires first.

    ``block_cycles=1`` degenerates to the historical per-tick behaviour.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        cpu: MipsCpu,
        period: float,
        block_cycles: int = CPU_BLOCK_CYCLES,
    ) -> None:
        super().__init__(kernel, name)
        if period <= 0.0:
            raise ValueError("CPU clock period must be positive")
        if block_cycles < 1:
            raise ValueError("block_cycles must be at least 1")
        self.cpu = cpu
        self.period = period
        self.block_cycles = block_cycles
        #: Index of the next clock cycle to execute (cycle ``c`` fires at
        #: ``origin + c * period``, mirroring PeriodicTicker's drift-free grid).
        self.cycle = 0
        self._grid_origin = kernel.now + period
        #: Absolute times no instruction block may execute across (sorted).
        #: Injection events use these so a burst never runs an instruction
        #: whose clock cycle lies at or past a pending mutation.
        self._sync_times: list[float] = []
        self._action = self._wake
        kernel.schedule(period, self._action)

    def add_sync_point(self, time: float) -> None:
        """Forbid instruction blocks from crossing the absolute time ``time``.

        Between peripheral accesses the block executor runs *ahead* of the
        kernel clock, which is unobservable for CPU-private state — until an
        external event (a fault injection) mutates that state at a scheduled
        time.  A sync point restores exactness: every instruction whose clock
        cycle fires strictly before ``time`` executes first, and the cycle at
        or after ``time`` waits for its own kernel event, matching the
        one-instruction-per-tick interleaving (the mutation event was
        scheduled earlier, so at equal timestamps it fires before the tick).
        """
        insort(self._sync_times, time)

    def scheduled(self) -> float:
        """The time the running wake counts as scheduled at: its previous
        clock cycle, the heap key the wake was pushed with."""
        return quantize(self._grid_origin + (self.cycle - 1) * self.period)

    def _wake(self) -> None:
        kernel = self.kernel
        budget = self.block_cycles
        end = kernel.end_time
        if end is not None and budget > 1:
            # Cycles fire at now + j*period; only those within the run
            # horizon may execute in this burst (the per-tick model would
            # not have reached the later ones yet).
            fit = int((end - kernel.now) / self.period + 1e-9) + 1
            if fit < budget:
                budget = fit if fit >= 1 else 1
        sync = self._sync_times
        while sync and sync[0] <= kernel.now + 1e-18:
            sync.pop(0)  # already behind us: the mutation event has fired
        if sync and budget > 1:
            # Cycles at now + j*period with j < (sync - now) / period happen
            # strictly before the next mutation and are safe to burst; the
            # first cycle at or past it must start its own kernel event.
            ratio = (sync[0] - kernel.now) / self.period
            fit = int(ratio + 1e-9)
            if fit < ratio - 1e-9:
                fit += 1
            if fit < 1:
                fit = 1
            if fit < budget:
                budget = fit
        cpu = self.cpu
        before = cpu.instruction_count
        action = self._action
        try:
            cycle = self.cycle + cpu.run_block(budget)
        except Exception as error:
            if cpu.instruction_count == before:
                raise
            # The raising instruction's cycle lies ahead of ``now``: it
            # raises again from an event on that cycle, not from this one.
            cycle = self.cycle + cpu.instruction_count - before
            action = partial(_reraise, error)
        self.cycle = cycle
        origin = self._grid_origin
        period = self.period
        # The next wake is pushed directly.  schedule_abs's clamp to ``now``
        # is not needed: quantize is monotonic, and ``now`` is this wake's
        # own grid time.
        sequence = kernel._sequence + 1
        kernel._sequence = sequence
        heappush(
            kernel._timed,
            (
                quantize(origin + cycle * period),
                quantize(origin + (cycle - 1) * period),
                sequence,
                action,
            ),
        )


def _reraise(error: Exception) -> None:
    raise error


class _PythonAnalog:
    """Steps a generated model at every analog tick and pushes its output
    straight into the ADC bridge (the ``python`` integration style)."""

    def __init__(self, instance, stimuli: Stimuli, adc: AdcBridge) -> None:
        self.step = instance.step
        self.waveforms = [stimuli[name] for name in instance.INPUTS]
        self.single_output = len(instance.OUTPUTS) == 1
        self.push = adc.push_sample

    def tick(self, now: float) -> None:
        result = self.step(*[waveform(now) for waveform in self.waveforms], now)
        self.push(result if self.single_output else result[0])


def python_stream(
    model: "SignalFlowModel | type | object",
    stimuli: Stimuli,
    timestep: float,
    until: float,
) -> AnalogStream:
    """The samples :meth:`SmartSystemPlatform.attach_analog_python` pushes
    into the ADC in a run up to the absolute time ``until``.

    The model steps on the analog ticker's grid of a platform attached at
    time 0 (tick ``k`` at ``quantize(dt + (k - 1) * dt)``), every tick the
    kernel fires up to ``until`` included, and each value goes through the
    bridge's own ``push_sample``.
    """
    adc = AdcBridge(record=True)
    analog = _PythonAnalog(_instantiate(model), stimuli, adc)
    end = quantize(until) + 1e-18  # Kernel.run's horizon
    times = []
    now = quantize(timestep)
    while now <= end:
        analog.tick(now)
        times.append(now)
        now = quantize(timestep + len(times) * timestep)
    return AnalogStream(times, adc.history)


class _AdcSampler(Module):
    """Publishes the value of a discrete-event signal into the ADC bridge."""

    def __init__(self, kernel: Kernel, name: str, signal: Signal, adc: AdcBridge, timestep: float) -> None:
        super().__init__(kernel, name)
        self.watched = signal
        self.adc = adc
        self._ticker = PeriodicTicker(kernel, f"{name}.tick", timestep, self._sample)

    def _sample(self, now: float) -> None:
        # Defer three deltas: stimulus update, analog module update, then read.
        # Bound methods instead of nested lambdas: this runs once per analog
        # timestep, and the closure allocations showed up in profiles.
        self.kernel._delta_pending.append(self._after_first_delta)

    def _after_first_delta(self) -> None:
        self.kernel._delta_pending.append(self._after_second_delta)

    def _after_second_delta(self) -> None:
        self.kernel._delta_pending.append(self._push)

    def _push(self) -> None:
        self.adc.push_sample(self.watched.read())


class _TdfAdcSink(TdfModule):
    """TDF sink pushing every sample into the ADC bridge."""

    def __init__(self, name: str, adc: AdcBridge) -> None:
        super().__init__(name)
        self.inp = self.in_port("in")
        self.adc = adc

    def processing(self) -> None:
        self.adc.push_sample(self.inp.read())


class SmartSystemPlatform:
    """Digital virtual platform with a pluggable analog subsystem."""

    def __init__(
        self,
        cpu_clock_hz: float = 20e6,
        analog_timestep: float = 50e-9,
        firmware: str | None = None,
        record_analog: bool = False,
        cpu_block_cycles: int = CPU_BLOCK_CYCLES,
        cpu_superblocks: bool = True,
    ) -> None:
        self.kernel = Kernel()
        self.analog_timestep = float(analog_timestep)
        self.cpu_clock_hz = float(cpu_clock_hz)
        self.cpu_period = 1.0 / float(cpu_clock_hz)

        self.memory = Memory(size=RAM_SIZE)
        self.bus = ApbBus(PERIPHERAL_BASE)
        self.uart = Uart()
        self.adc = AdcBridge(record=record_analog)
        self.bus.attach("uart0", UART_BASE, self.uart)
        self.bus.attach("adc0", ADC_BASE, self.adc)

        self.firmware_source = firmware if firmware is not None else default_firmware()
        self.program = assemble(self.firmware_source)
        self.memory.load_image(self.program.to_bytes())

        self.cpu = MipsCpu(
            self.memory,
            bus_read=self.bus.read,
            bus_write=self.bus.write,
            peripheral_base=PERIPHERAL_BASE,
            superblocks=cpu_superblocks,
        )
        self.cpu_block_cycles = int(cpu_block_cycles)
        self._cpu_driver = _CpuBlockDriver(
            self.kernel,
            "cpu.clock",
            self.cpu,
            self.cpu_period,
            self.cpu_block_cycles,
        )

        self.analog_style: str | None = None
        self._analog_modules: list[object] = []

    # -- analog attachment --------------------------------------------------------------------
    def _ensure_unattached(self) -> None:
        if self.analog_style is not None:
            raise PlatformError(
                f"an analog subsystem ({self.analog_style!r}) is already attached"
            )

    def attach_analog(
        self,
        style: str,
        stimuli: Stimuli,
        model: "SignalFlowModel | type | object | None" = None,
        circuit: "Circuit | str | None" = None,
        output: str | None = None,
    ) -> None:
        """Attach an analog subsystem by style key (see :data:`ANALOG_STYLES`).

        The :data:`ABSTRACTED_STYLES` need a ``model``; the conservative
        styles (``"eln"``, ``"cosim"``) need a ``circuit`` and the observed
        ``output`` quantity.
        """
        if style not in ANALOG_STYLES:
            raise PlatformError(
                f"unknown analog integration style {style!r}; expected one of {ANALOG_STYLES}"
            )
        attach = getattr(self, f"attach_analog_{style}")
        if style in ABSTRACTED_STYLES:
            if model is None:
                raise PlatformError(f"analog style {style!r} needs a signal-flow model")
            attach(model, stimuli)
            return
        if circuit is None or output is None:
            raise PlatformError(
                f"analog style {style!r} needs a circuit and an output quantity"
            )
        attach(circuit, stimuli, output)

    def attach_analog_python(self, model: "SignalFlowModel | type | object", stimuli: Stimuli) -> None:
        """Integrate the generated model as plain code called every timestep."""
        self._ensure_unattached()
        analog = _PythonAnalog(_instantiate(model), stimuli, self.adc)
        ticker = PeriodicTicker(
            self.kernel, "analog.cpp", self.analog_timestep, analog.tick
        )
        self._analog_modules.append(ticker)
        self.analog_style = "python"

    def attach_analog_stream(self, stream: AnalogStream) -> None:
        """Integrate the ``python`` style from its precomputed ADC samples.

        ``stream`` is :func:`python_stream` of the model, stimuli and this
        platform's analog timestep, up to at least the end of the run.  No
        ticker steps the model: the ADC answers each access from the samples
        the ticker would have pushed by then, so every run outcome equals
        :meth:`attach_analog_python`'s.  That holds while nothing reaches
        back from the CPU to the analog side.  Attach before the first run.
        """
        self._ensure_unattached()
        if self.kernel.now != 0.0:
            raise PlatformError("attach an analog stream before the platform runs")
        adc = StreamAdcBridge(
            stream,
            self._cpu_driver,
            self.adc.name,
            self.adc.millivolts_per_unit,
            record=self.adc.history is not None,
        )
        self.bus.interpose("adc0", lambda _pushed: adc)
        self.adc = adc
        self.analog_style = "python"

    def attach_analog_de(self, model: "SignalFlowModel | type | object", stimuli: Stimuli) -> None:
        """Integrate the generated model as a SystemC-DE style module."""
        self._ensure_unattached()
        instance = _instantiate(model)
        sources = {
            name: DeSourceModule(self.kernel, f"src_{name}", stimuli[name], self.analog_timestep)
            for name in instance.INPUTS
        }
        device = DeSignalFlowModule(
            self.kernel,
            "analog.de",
            instance,
            {name: source.out for name, source in sources.items()},
        )
        sampler = _AdcSampler(
            self.kernel, "adc.sampler", device.output(), self.adc, self.analog_timestep
        )
        self._analog_modules.extend([*sources.values(), device, sampler])
        self.analog_style = "systemc_de"

    def attach_analog_tdf(self, model: "SignalFlowModel | type | object", stimuli: Stimuli) -> None:
        """Integrate the generated model as a TDF cluster bridged to the DE kernel."""
        self._ensure_unattached()
        instance = _instantiate(model)
        cluster = TdfCluster("analog.tdf")
        device = cluster.add(TdfSignalFlowModule("dut", instance))
        for name in instance.INPUTS:
            source = cluster.add(TdfSourceModule(f"src_{name}", stimuli[name], self.analog_timestep))
            cluster.connect(source.out, device.inputs[name])
        sink = cluster.add(_TdfAdcSink("adc_sink", self.adc))
        cluster.connect(device.outputs[instance.OUTPUTS[0]], sink.inp)
        bridge = TdfDeBridge(self.kernel, "analog.tdf_bridge", cluster)
        self._analog_modules.extend([cluster, bridge])
        self.analog_style = "systemc_tdf"

    def attach_analog_eln(self, circuit: Circuit, stimuli: Stimuli, output: str) -> None:
        """Integrate the conservative ELN solver."""
        self._ensure_unattached()
        model = ElnModel(circuit, self.analog_timestep)
        sources = {
            name: DeSourceModule(self.kernel, f"src_{name}", stimuli[name], self.analog_timestep)
            for name in model.inputs
        }
        device = ElnDeModule(
            self.kernel,
            "analog.eln",
            model,
            {name: source.out for name, source in sources.items()},
            observed=[output],
        )
        sampler = _AdcSampler(
            self.kernel, "adc.sampler", device.output(output), self.adc, self.analog_timestep
        )
        self._analog_modules.extend([*sources.values(), device, sampler])
        self.analog_style = "systemc_ams_eln"

    def attach_analog_cosim(self, circuit: "Circuit | str", stimuli: Stimuli, output: str) -> None:
        """Integrate the original Verilog-AMS model through co-simulation."""
        self._ensure_unattached()
        simulator = ReferenceAmsSimulator(circuit, self.analog_timestep)
        server = AnalogCosimServer(simulator, observed_quantities=[output])
        sources = {
            name: DeSourceModule(self.kernel, f"src_{name}", stimuli[name], self.analog_timestep)
            for name in simulator.inputs
        }
        output_signal = Signal(self.kernel, 0.0, "cosim.out")
        bridge = CoSimulationBridge(
            self.kernel,
            "analog.cosim",
            server,
            input_signals={name: source.out for name, source in sources.items()},
            output_signals={output: output_signal},
            timestep=self.analog_timestep,
        )
        sampler = _AdcSampler(
            self.kernel, "adc.sampler", output_signal, self.adc, self.analog_timestep
        )
        self._analog_modules.extend([*sources.values(), bridge, sampler])
        self.analog_style = "verilog_ams_cosim"

    # -- instrumentation ----------------------------------------------------------------------
    def schedule_injection(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action`` at the absolute virtual time ``time``, exactly.

        The CPU block driver is synchronised around the injection point, so a
        mutation of CPU-visible state (RAM, registers) lands on precisely the
        same instruction boundary whether the platform runs per-tick
        (``cpu_block_cycles=1``) or block-stepped — the fault-injection
        subsystem's equivalence guarantee rests on this.
        """
        self._cpu_driver.add_sync_point(time)
        adc = self.adc
        if isinstance(adc, StreamAdcBridge):
            inject = action

            def action() -> None:
                # A crash raised here saw no tick of this instant yet.
                adc.event_key = -math.inf
                inject()
                adc.event_key = None

        # Scheduled "before time began": the injection fires first at its
        # instant whether it was armed before the run or on a clone.
        self.kernel.schedule_abs(time, action, -math.inf)

    # -- execution ----------------------------------------------------------------------------------
    def snapshot(self, crashed: str | None = None) -> PlatformRunResult:
        """The run statistics of the platform's *current* state.

        :meth:`run` returns this after a completed simulation; crash handlers
        (the sweep layer's ``capture_errors`` path) call it directly to record
        how far a faulted platform got before the error.
        """
        counter_value = self.memory.read_word(CROSSING_COUNTER_ADDRESS)
        samples, trace = self.adc.delivered()
        return PlatformRunResult(
            simulated_time=self.kernel.now,
            instructions=self.cpu.instruction_count,
            bus_transactions=self.bus.transaction_count,
            uart_output=self.uart.output_text(),
            analog_samples=samples,
            crossings_reported=counter_value,
            analog_style=self.analog_style or "unattached",
            analog_trace=trace,
            crashed=crashed,
        )

    def run(self, duration: float) -> PlatformRunResult:
        """Simulate the platform for ``duration`` seconds of virtual time."""
        return self.run_until(self.kernel.now + duration)

    def run_until(self, time: float) -> PlatformRunResult:
        """Simulate up to and including the absolute virtual time ``time``."""
        self._simulate(time)
        return self.snapshot()

    def advance_before(self, time: float) -> None:
        """Simulate every event earlier than the absolute time ``time``.

        No event at ``time`` fires and no instruction whose clock cycle lies
        at or after it executes, so a :meth:`clone` taken now and armed
        with an injection at ``time`` continues exactly like a platform
        armed before its run.
        """
        self._cpu_driver.add_sync_point(time)
        self._simulate(quantize(time) - RESOLUTION)

    def clone(self) -> "SmartSystemPlatform":
        """An independent copy of the complete simulation state.

        Running either platform afterwards leaves the other untouched.  The
        CPU's decoded instructions and compiled superblocks are immutable
        and shared (see :meth:`MipsCpu.__deepcopy__
        <repro.vp.mips.cpu.MipsCpu.__deepcopy__>`).  Clone between runs:
        the kernel's delta queues are empty then.
        """
        return copy.deepcopy(self)

    def _simulate(self, end_time: float) -> None:
        if self.analog_style is None:
            raise PlatformError(
                "attach an analog subsystem before running the platform"
            )
        adc = self.adc
        if isinstance(adc, StreamAdcBridge):
            # Inside the run every access is a CPU wake's.  A run that
            # raises keeps that key, so its snapshot counts what the
            # raising wake saw; a completed run saw every tick up to now.
            adc.event_key = None
            self._run_kernel(end_time)
            adc.event_key = math.inf
        else:
            self._run_kernel(end_time)

    def _run_kernel(self, end_time: float) -> None:
        tracer = TRACER
        if not tracer.enabled:
            self.kernel.run(until=end_time)
            return
        start = tracer.now()
        cpu = self.cpu
        instructions_before = cpu.instruction_count
        compiles_before = cpu.superblock_compile_count
        hits_before = cpu.superblock_hit_count
        invalidations_before = cpu.superblock_invalidation_count
        self.kernel.run(until=end_time)
        compiles = cpu.superblock_compile_count - compiles_before
        hits = cpu.superblock_hit_count - hits_before
        invalidations = cpu.superblock_invalidation_count - invalidations_before
        tracer.end(
            "platform.run",
            start,
            "platform",
            style=self.analog_style,
            instructions=cpu.instruction_count - instructions_before,
            blocks=cpu.block_count,
            decode_misses=cpu.decode_miss_count,
            decode_invalidations=cpu.decode_invalidation_count,
            superblock_compiles=compiles,
            superblock_hits=hits,
            superblock_invalidations=invalidations,
        )
        tracer.add("iss.superblock.compiles", float(compiles))
        tracer.add("iss.superblock.hits", float(hits))
        tracer.add("iss.superblock.invalidations", float(invalidations))

