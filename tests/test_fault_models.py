"""Tests of the fault model library (``repro.fault.models``) and the
platform/memory hooks it builds on.

Analog faults are netlist transforms and must flow through every backend —
including the vectorized NumPy batch path — with no fault-specific code in
the simulators.  Digital faults are platform hooks and must be *exact*:
time-gated bus saboteurs strike on precise clock cycles, and scheduled
injections into CPU-visible state land on the same instruction boundary
whether the ISS runs per-tick or block-stepped.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits import build_opamp, build_rc_filter, rc_benchmark
from repro.core import abstract_circuit
from repro.errors import BusError, FaultError
from repro.fault import (
    AdcBitFlipFault,
    AdcStuckBitFault,
    FaultableCircuitFactory,
    GainDegradationFault,
    InstructionCorruptionFault,
    MemoryBitFlipFault,
    ParameterDriftFault,
    RegisterTransientFault,
    ResistorOpenFault,
    ResistorShortFault,
    UartCorruptionFault,
    analog_fault_universe,
    digital_fault_universe,
)
from repro.sim import SquareWave
from repro.sweep import Scenario, SweepRunner
from repro.vp import Memory, MipsCpu, SmartSystemPlatform, assemble
from repro.vp.mips.isa import register_number
from repro.vp.platform import RAM_SIZE

TIMESTEP = 50e-9
WAVE = {"vin": SquareWave(period=8e-6)}


def rc1_factory():
    return rc_benchmark(1).build


class TestAnalogFaults:
    def test_drift_scales_the_component_value(self):
        circuit = build_rc_filter(1)
        nominal = circuit.branch("r1").component.resistance
        ParameterDriftFault("r1", 1.5).apply(circuit)
        assert circuit.branch("r1").component.resistance == pytest.approx(1.5 * nominal)
        ParameterDriftFault("c1", 2.0).apply(circuit)
        assert circuit.branch("c1").component.capacitance == pytest.approx(50e-9)

    def test_open_and_short_rewrite_the_resistance(self):
        circuit = build_rc_filter(1)
        ResistorOpenFault("r1").apply(circuit)
        assert circuit.branch("r1").component.resistance == 1e9
        ResistorShortFault("r1").apply(circuit)
        assert circuit.branch("r1").component.resistance == 1e-2

    def test_open_short_reject_non_resistors(self):
        circuit = build_rc_filter(1)
        with pytest.raises(FaultError, match="not a resistor"):
            ResistorOpenFault("c1").apply(circuit)

    def test_gain_degradation_hits_controlled_sources_only(self):
        circuit = build_opamp()
        nominal = circuit.branch("stage").component.gain
        GainDegradationFault("stage", 0.5).apply(circuit)
        assert circuit.branch("stage").component.gain == pytest.approx(0.5 * nominal)
        with pytest.raises(FaultError, match="no gain"):
            GainDegradationFault("rb1", 0.5).apply(build_opamp())

    def test_validation(self):
        with pytest.raises(FaultError):
            ParameterDriftFault("r1", 0.0)
        with pytest.raises(FaultError):
            AdcStuckBitFault(bit=32)
        with pytest.raises(FaultError):
            AdcStuckBitFault(bit=0, stuck_at=2)
        with pytest.raises(FaultError):
            RegisterTransientFault(register=0)
        with pytest.raises(FaultError):
            MemoryBitFlipFault(bit=8)
        with pytest.raises(FaultError):
            UartCorruptionFault(0)
        with pytest.raises(FaultError):
            InstructionCorruptionFault(address=2)

    def test_fixed_addresses_outside_ram_are_refused(self):
        """A fault that would poke outside RAM is refused when built, not
        left to crash every run with the injection's own bus error."""
        for address in (RAM_SIZE, -4, RAM_SIZE + 4):
            with pytest.raises(FaultError, match="leave the RAM"):
                InstructionCorruptionFault(address)
            with pytest.raises(FaultError, match="leave the RAM"):
                MemoryBitFlipFault(address, 0)
        with pytest.raises(FaultError, match="leave the RAM"):
            MemoryBitFlipFault(-1, 0)
        InstructionCorruptionFault(RAM_SIZE - 4)
        MemoryBitFlipFault(RAM_SIZE - 1, 7)
        MemoryBitFlipFault(None, 7)

    @pytest.mark.parametrize(
        "fault_class, field, value, name",
        [
            (ResistorOpenFault, "resistance", 0.0, "open:b"),
            (ResistorOpenFault, "resistance", -1e3, "open:b"),
            (ResistorOpenFault, "resistance", math.inf, "open:b"),
            (ResistorShortFault, "resistance", -5.0, "short:b"),
            (ResistorShortFault, "resistance", 0.0, "short:b"),
            (ResistorShortFault, "resistance", math.nan, "short:b"),
            (ParameterDriftFault, "factor", math.inf, "drift:bxinf"),
            (ParameterDriftFault, "factor", math.nan, "drift:bxnan"),
            (GainDegradationFault, "factor", math.inf, "gain:bxinf"),
        ],
    )
    def test_non_physical_values_are_refused_when_built(self, fault_class, field, value, name):
        """A negative short used to build, and then simulated a negative
        resistor whose NRMSE overflowed into a firmware-detected verdict."""
        with pytest.raises(FaultError) as raised:
            fault_class("b", **{field: value})
        message = str(raised.value)
        assert message.startswith(f"fault {name}: ") and repr(value) in message

    def test_names_are_deterministic_and_distinct(self):
        universe = analog_fault_universe(build_opamp()) + digital_fault_universe()
        names = [fault.name for fault in universe]
        assert len(names) == len(set(names))
        assert ParameterDriftFault("r1", 1.5).name == "drift:r1x1.5"
        assert AdcStuckBitFault(9, 1).name == "adc-stuck1:bit9"
        # full-precision factors: near-identical drifts keep distinct names
        assert (
            ParameterDriftFault("r1", 1.0000001).name
            != ParameterDriftFault("r1", 1.0000002).name
        )

    def test_universe_covers_every_component_family(self):
        kinds = {fault.kind for fault in analog_fault_universe(build_opamp())}
        assert kinds == {"open", "short", "drift", "gain-degradation"}
        kinds = {fault.kind for fault in digital_fault_universe()}
        assert kinds == {
            "adc-stuck",
            "adc-flip",
            "register-flip",
            "memory-flip",
            "uart-corruption",
        }

    def test_faulted_model_diverges_from_nominal(self):
        """The transform must change the *abstracted* model's behaviour."""
        nominal = abstract_circuit(build_rc_filter(1), "out", TIMESTEP)
        faulted_circuit = build_rc_filter(1)
        ParameterDriftFault("r1", 2.0).apply(faulted_circuit)
        faulted = abstract_circuit(faulted_circuit, "out", TIMESTEP)
        a = nominal.run(WAVE, 4e-6).waveform("V(out)")
        b = faulted.run(WAVE, 4e-6).waveform("V(out)")
        assert not np.allclose(a, b)


class TestFaultsFlowThroughBatchBackend:
    def test_numpy_batch_equals_scalar_python_for_faulted_scenarios(self):
        """A faulted netlist is just another netlist: the vectorized batch
        backend simulates nominal and faulted variants in one structure
        group, bit-compatible with the scalar path."""
        factory = FaultableCircuitFactory(
            rc1_factory(),
            {
                "drift:r1x1.5": ParameterDriftFault("r1", 1.5),
                "open:r1": ResistorOpenFault("r1"),
            },
        )
        scenarios = [
            Scenario(index=0, label="nominal", params={}),
            Scenario(index=1, label="drift", params={"_fault": "drift:r1x1.5"}),
            Scenario(index=2, label="open", params={"_fault": "open:r1"}),
        ]
        batched = SweepRunner(
            factory, "out", WAVE, timestep=TIMESTEP, backend="numpy"
        ).run(scenarios, 4e-6)
        scalar = SweepRunner(
            factory, "out", WAVE, timestep=TIMESTEP, backend="python"
        ).run(scenarios, 4e-6)
        assert batched.structure_groups == 1  # faults batch with nominal
        np.testing.assert_allclose(
            batched.outputs["V(out)"], scalar.outputs["V(out)"], atol=1e-12
        )
        # and the faults actually did something
        matrix = batched.outputs["V(out)"]
        assert not np.allclose(matrix[0], matrix[1])
        assert not np.allclose(matrix[0], matrix[2])


class TestMemoryHardening:
    def test_peek_reads_back_what_poke_wrote(self):
        memory = Memory(size=1024)
        memory.poke(16, b"\xaa\xbb")
        assert memory.peek(16, 2) == b"\xaa\xbb"

    def test_poke_accepts_single_byte_values(self):
        memory = Memory(size=1024)
        memory.poke(3, 0x5A)
        assert memory.peek(3) == b"\x5a"

    def test_poke_rejects_multi_byte_ints(self):
        memory = Memory(size=1024)
        with pytest.raises(ValueError, match="one byte"):
            memory.poke(0, 0x12345678)
        with pytest.raises(ValueError, match="one byte"):
            memory.poke(0, -1)

    def test_flip_bit(self):
        memory = Memory(size=1024)
        memory.poke(8, 0b1000)
        assert memory.flip_bit(8, 0) == 0b1001
        assert memory.flip_bit(8, 3) == 0b0001
        with pytest.raises(ValueError):
            memory.flip_bit(8, 8)

    def test_bounds_are_checked(self):
        memory = Memory(size=64)
        with pytest.raises(BusError):
            memory.poke(62, b"\x00\x00\x00")
        with pytest.raises(BusError):
            memory.peek(64)

    def test_watchers_see_word_aligned_spans(self):
        events = []
        memory = Memory(size=1024)
        memory.add_write_watcher(lambda address, width: events.append((address, width)))
        memory.write_byte(5, 0xFF)
        memory.write_word(8, 0x1234)
        memory.poke(13, b"\x01\x02\x03\x04")  # bytes 13-16: covers words 12..20
        memory.flip_bit(21, 2)
        assert events == [(4, 4), (8, 4), (12, 8), (20, 4)]
        for address, width in events:
            assert address % 4 == 0 and width % 4 == 0

    def test_poke_notify_false_bypasses_watchers(self):
        events = []
        memory = Memory(size=1024)
        memory.add_write_watcher(lambda address, width: events.append((address, width)))
        memory.poke(0, b"\xff\xff\xff\xff", notify=False)
        memory.flip_bit(9, 1, notify=False)
        assert events == []


class TestDecodeCacheUnderPoke:
    """The decode-cache edge cases of external sub-word writes."""

    SOURCE = "li $v0, 5\nhalt: beq $zero, $zero, halt\n"

    def fresh_cpu(self) -> MipsCpu:
        memory = Memory(size=64 * 1024)
        memory.load_image(assemble(self.SOURCE).to_bytes())
        return MipsCpu(memory)

    def test_external_byte_write_into_code_re_decodes(self):
        cpu = self.fresh_cpu()
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 5
        # Rewrite only the low byte of the `ori $v0, $zero, 5` immediate
        # (li expands to lui+ori; word 1 is the ori).
        cpu.memory.write_byte(4, 9)
        cpu.reset()
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 9

    def test_poke_into_code_re_decodes(self):
        cpu = self.fresh_cpu()
        cpu.run_block(4)
        cpu.memory.poke(4, 7)
        cpu.reset()
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 7

    def test_poke_without_notify_leaves_stale_decode(self):
        """The explicit bypass: RAM changes but the decoded copy executes."""
        cpu = self.fresh_cpu()
        cpu.run_block(4)
        cpu.memory.poke(4, 7, notify=False)
        cpu.reset()
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 5  # stale by design
        assert cpu.memory.peek(4) == b"\x07"  # RAM itself did change

    def test_load_image_over_executed_code_re_decodes(self):
        cpu = self.fresh_cpu()
        cpu.run_block(4)
        cpu.memory.load_image(assemble("li $v0, 11\nhalt: beq $zero, $zero, halt\n").to_bytes())
        cpu.reset()
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 11


def build_faulted_platform(block_cycles: int, arm) -> SmartSystemPlatform:
    """A recording RC1 platform with ``arm(platform)`` applied before run."""
    model = abstract_circuit(build_rc_filter(1, resistance=1e3), "out", TIMESTEP)
    platform = SmartSystemPlatform(
        record_analog=True, cpu_block_cycles=block_cycles
    )
    platform.attach_analog_python(model, {"vin": SquareWave(period=40e-6)})
    arm(platform)
    return platform


class TestDigitalFaultExactness:
    DURATION = 60e-6

    @pytest.mark.parametrize(
        "fault, at_time",
        [
            (RegisterTransientFault(register=17, bit=0), 23.45e-6),
            (RegisterTransientFault(register=10, bit=3), 30e-6),
            (MemoryBitFlipFault(0x0000_F000, 0), 17.77e-6),
            (AdcStuckBitFault(bit=9, stuck_at=1), 20e-6),
            (AdcBitFlipFault(bit=9), 31e-6),
            (UartCorruptionFault(0x20), 25e-6),
        ],
    )
    def test_injection_is_block_size_invariant(self, fault, at_time):
        """The defining guarantee: per-tick and block-stepped platforms see
        the injection at the same instruction boundary, so the run outcome
        (including the exact UART bytes) is bit-identical."""
        rng = np.random.default_rng(0)
        outcomes = []
        for block in (1, 7, 256, 10_000):
            platform = build_faulted_platform(
                block, lambda p: fault.arm(p, at_time, rng)
            )
            result = platform.run(self.DURATION)
            outcomes.append(
                (result.fingerprint(), tuple(platform.cpu.registers[:32]))
            )
        assert all(outcome == outcomes[0] for outcome in outcomes[1:]), fault.name

    def test_faults_perturb_the_run(self):
        """Sanity: the exactness test must not be comparing no-op runs."""
        golden = build_faulted_platform(256, lambda p: None).run(self.DURATION)
        fault = AdcStuckBitFault(bit=9, stuck_at=1)
        rng = np.random.default_rng(0)
        faulted = build_faulted_platform(
            256, lambda p: fault.arm(p, 20e-6, rng)
        ).run(self.DURATION)
        assert faulted.fingerprint() != golden.fingerprint()

    def test_self_modifying_injection_matches_per_tick(self):
        """Fault-injected code modification: corrupting an instruction word
        under the running firmware must behave identically per-tick and
        block-stepped (both crash on the same fetch)."""
        probe = build_faulted_platform(256, lambda p: None)
        probe.run(10e-6)
        loop_address = probe.cpu.pc & ~0x3  # inside the firmware poll loop
        fault = InstructionCorruptionFault(loop_address)
        outcomes = []
        for block in (1, 256):
            platform = build_faulted_platform(
                block, lambda p: fault.arm(p, 30e-6, np.random.default_rng(0))
            )
            from repro.errors import CpuFault

            with pytest.raises(CpuFault):
                platform.run(self.DURATION)
            outcomes.append(
                (
                    platform.cpu.instruction_count,
                    platform.cpu.pc,
                    tuple(platform.cpu.registers[:32]),
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_adc_flip_is_one_shot(self):
        fault = AdcBitFlipFault(bit=0)
        platform = build_faulted_platform(
            256, lambda p: fault.arm(p, 0.0, np.random.default_rng(0))
        )
        saboteur = platform.bus.peripheral("adc0")
        platform.adc.push_sample(0.0)
        first = platform.bus.read(0x1000_1000)  # ADC DATA register
        second = platform.bus.read(0x1000_1000)
        assert first == 1 and second == 0
        assert saboteur.fired

    def test_random_address_memory_flip_is_seed_deterministic(self):
        fault = MemoryBitFlipFault(address=None, bit=0)
        images = []
        for _ in range(2):
            platform = build_faulted_platform(
                256, lambda p: fault.arm(p, 10e-6, np.random.default_rng(99))
            )
            platform.run(20e-6)
            images.append(bytes(platform.memory._data))
        assert images[0] == images[1]
