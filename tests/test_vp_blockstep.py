"""Tests for the predecoded, block-stepped ISS: equivalence and invalidation.

The block executor must be a pure speedup: for any chunking of the
instruction stream it has to produce exactly the architectural trace of the
one-instruction-at-a-time interpreter, including across self-modifying code,
firmware reloads and peripheral-window accesses.
"""

from __future__ import annotations

import pytest

from repro.sim import Kernel
from repro.vp import Memory, MipsCpu, SmartSystemPlatform, assemble
from repro.vp.firmware import FIRMWARE_STYLE_LOOP
from repro.vp.mips.isa import register_number, to_signed_32
from repro.vp.platform import _CpuBlockDriver

#: A program exercising every hot path: ALU, shifts, signed compares, RAM
#: loads/stores (word and byte), taken/untaken branches, jumps and call/ret.
MIXED_PROGRAM = """
        li    $t0, 0
        li    $t1, 0x3000
        li    $t3, 0            # loop forever (counter wraps)
loop:   addiu $t0, $t0, 3
        andi  $t2, $t0, 0x1FF
        sll   $t4, $t2, 3
        subu  $t5, $t4, $t2
        sw    $t5, 0($t1)
        lw    $t6, 0($t1)
        sb    $t6, 8($t1)
        lbu   $t7, 8($t1)
        lb    $s0, 8($t1)
        slt   $s1, $t5, $t6
        sltiu $s2, $t6, 0x8000
        xor   $s3, $t6, $t2
        nor   $s4, $t6, $t2
        srl   $s5, $t6, 2
        sra   $s6, $t6, 2
        mult  $t0, $t6
        mflo  $s7
        blez  $t2, skip
        jal   leaf
skip:   bne   $t0, $t3, loop
        j     loop
leaf:   ori   $v0, $t2, 0x10
        jr    $ra
"""


def architectural_state(cpu: MipsCpu) -> tuple:
    return (
        cpu.pc,
        tuple(cpu.registers[:32]),
        cpu.hi,
        cpu.lo,
        cpu.instruction_count,
        cpu.load_count,
        cpu.store_count,
        bytes(cpu.memory._data),
    )


def fresh_cpu(source: str) -> MipsCpu:
    program = assemble(source)
    memory = Memory(size=64 * 1024)
    memory.load_image(program.to_bytes())
    return MipsCpu(memory)


class TestBlockEquivalence:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 17, 64, 1000])
    def test_block_chunking_matches_single_stepping(self, chunk):
        total = 3000
        reference = fresh_cpu(MIXED_PROGRAM)
        blocked = fresh_cpu(MIXED_PROGRAM)
        done = 0
        while done < total:
            budget = min(chunk, total - done)
            executed = blocked.run_block(budget)
            assert 0 < executed <= budget
            for _ in range(executed):
                reference.step()
            done += executed
            assert architectural_state(reference) == architectural_state(blocked)

    def test_run_block_returns_zero_when_halted(self):
        cpu = fresh_cpu(MIXED_PROGRAM)
        cpu.halted = True
        assert cpu.run_block(100) == 0
        assert cpu.instruction_count == 0

    def test_step_is_run_block_of_one(self):
        cpu = fresh_cpu(MIXED_PROGRAM)
        cpu.step()
        assert cpu.instruction_count == 1


class TestDecodeCacheInvalidation:
    def test_self_modifying_code_re_decodes(self):
        # The program overwrites the instruction at `patch` (addiu $t2,$zero,99)
        # with `addiu $t2, $zero, 7` *before* executing it; a stale decode
        # cache would execute the original 99.
        source = """
            la    $t0, patch
            li    $t1, 0x240A0007     # addiu $t2, $zero, 7
            sw    $t1, 0($t0)
        patch:  addiu $t2, $zero, 99
            halt: beq $zero, $zero, halt
        """
        for runner in ("step", "block"):
            cpu = fresh_cpu(source)
            if runner == "step":
                for _ in range(8):
                    cpu.step()
            else:
                cpu.run_block(8)
            assert cpu.read_register(register_number("$t2")) == 7, runner

    def test_self_modifying_code_after_block_warmup(self):
        # Same patch, but the target instruction has already been executed
        # (and therefore decode-cached) once before being overwritten.
        source = """
            li    $s0, 0
        again:
            la    $t0, patch
            li    $t1, 0x240A0007     # addiu $t2, $zero, 7
            beq   $s0, $zero, run_it  # first pass: execute the original
            sw    $t1, 0($t0)         # second pass: patch it
        run_it:
            addiu $s0, $s0, 1
        patch:  addiu $t2, $zero, 99
            li    $t3, 2
            bne   $s0, $t3, again
            halt: beq $zero, $zero, halt
        """
        step_cpu = fresh_cpu(source)
        for _ in range(40):
            step_cpu.step()
        block_cpu = fresh_cpu(source)
        done = 0
        while done < 40:
            done += block_cpu.run_block(40 - done)
        assert architectural_state(step_cpu) == architectural_state(block_cpu)
        assert step_cpu.read_register(register_number("$t2")) == 7

    def test_load_image_reload_and_reset_re_decode(self):
        program_a = assemble("li $v0, 11\nhalt: beq $zero, $zero, halt\n")
        program_b = assemble("li $v0, 22\nhalt: beq $zero, $zero, halt\n")
        memory = Memory(size=64 * 1024)
        memory.load_image(program_a.to_bytes())
        cpu = MipsCpu(memory)
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 11
        # Reload different firmware over the same addresses and reset: the
        # decoded entries for program A must not survive.
        memory.load_image(program_b.to_bytes())
        cpu.reset()
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 22

    def test_external_word_write_invalidates(self):
        cpu = fresh_cpu("li $v0, 5\nhalt: beq $zero, $zero, halt\n")
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 5
        # Patch the first instruction from the outside (ori $v0, $zero, 9).
        # `li` expanded to lui+ori, so the surviving second word ORs in 5:
        # a stale decode would still produce 5, the re-decode yields 9|5.
        cpu.memory.write_word(0, 0x34020009)
        cpu.reset()
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 13

    def test_external_byte_write_into_code_invalidates(self):
        # Sub-word external write: patch only the immediate byte of the
        # surviving `ori $v0, $zero, 5` (li expands to lui+ori).  The
        # watcher's word-aligned span must drop the covering decoded word.
        cpu = fresh_cpu("li $v0, 5\nhalt: beq $zero, $zero, halt\n")
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 5
        cpu.memory.write_byte(4, 9)
        cpu.reset()
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 9

    def test_scheduled_injection_self_modification_is_tick_exact(self):
        # Fault-injected self-modification through the platform's injection
        # API: per-tick and block-stepped runs must retire the same
        # instruction stream around the mutation.
        from repro.circuits import build_rc_filter
        from repro.core import abstract_circuit
        from repro.sim import SquareWave

        model = abstract_circuit(build_rc_filter(1), "out", 50e-9)
        states = []
        for block in (1, 64, 4096):
            platform = SmartSystemPlatform(cpu_block_cycles=block)
            platform.attach_analog_python(model, {"vin": SquareWave(period=40e-6)})
            # Overwrite the firmware's threshold register load with a nop at
            # an off-grid instant (not a multiple of any block size).
            platform.schedule_injection(
                13.37e-6, lambda p=platform: p.memory.poke(4, (0).to_bytes(4, "little"))
            )
            platform.run(50e-6)
            states.append(
                (
                    platform.cpu.instruction_count,
                    platform.cpu.pc,
                    tuple(platform.cpu.registers[:32]),
                    bytes(platform.memory._data),
                )
            )
        assert states[0] == states[1] == states[2]

    def test_clear_invalidates_whole_cache(self):
        cpu = fresh_cpu("li $v0, 5\nhalt: beq $zero, $zero, halt\n")
        cpu.run_block(4)
        cpu.memory.clear()
        cpu.reset()
        cpu.run_block(3)  # all nops now (zeroed memory)
        assert cpu.read_register(register_number("$v0")) == 0
        assert cpu.pc == 12


class TestPeripheralYield:
    def make_bus_cpu(self, source: str):
        reads: list[int] = []
        writes: list[tuple[int, int]] = []

        def bus_read(address: int) -> int:
            reads.append(address)
            return 0x123

        def bus_write(address: int, value: int) -> None:
            writes.append((address, value))

        program = assemble(source)
        memory = Memory(size=64 * 1024)
        memory.load_image(program.to_bytes())
        cpu = MipsCpu(memory, bus_read=bus_read, bus_write=bus_write)
        return cpu, reads, writes

    def test_block_yields_before_mid_block_peripheral_access(self):
        source = """
            lui   $t0, 0x1000
            addiu $t1, $zero, 1
            lw    $t2, 0($t0)        # peripheral load (instruction index 2)
            addiu $t3, $zero, 2
            sw    $t3, 4($t0)        # peripheral store (instruction index 4)
            halt: beq $zero, $zero, halt
        """
        cpu, reads, writes = self.make_bus_cpu(source)
        # The first burst must stop *before* the peripheral load...
        executed = cpu.run_block(100)
        assert executed == 2
        assert reads == [] and writes == []
        # ...which then executes as the first instruction of the next burst.
        executed = cpu.run_block(100)
        assert executed == 2
        assert reads == [0x1000_0000]
        assert writes == []
        executed = cpu.run_block(100)
        assert executed >= 1
        assert writes == [(0x1000_0004, 2)]
        assert cpu.read_register(register_number("$t2")) == 0x123

    def test_bus_callback_halting_the_cpu_stops_the_block(self):
        # A peripheral whose write handler halts the CPU (a power/halt
        # control register) must stop the burst immediately, exactly like
        # per-tick stepping would.
        source = """
            lui   $t0, 0x1000
            addiu $t1, $zero, 1
            sw    $t1, 0($t0)        # the halt register
            addiu $t2, $zero, 99     # must never execute
            halt: beq $zero, $zero, halt
        """
        program = assemble(source)
        memory = Memory(size=64 * 1024)
        memory.load_image(program.to_bytes())
        cpu = MipsCpu(memory, bus_write=lambda address, value: setattr(cpu, "halted", True))
        assert cpu.run_block(100) == 2          # lui + addiu, yield at the store
        assert cpu.run_block(100) == 1          # the halting store itself
        assert cpu.halted
        assert cpu.run_block(100) == 0
        assert cpu.read_register(register_number("$t2")) == 0

    def test_peripheral_window_wins_over_overlapping_ram(self):
        # Exotic config: the peripheral base *inside* the RAM address range.
        # Bus precedence: at or above peripheral_base the access goes to the
        # bus, never RAM.
        source = """
            li    $t0, 0x8000
            lw    $t1, 0($t0)        # peripheral read, NOT a RAM read
            halt: beq $zero, $zero, halt
        """
        program = assemble(source)
        memory = Memory(size=64 * 1024)
        memory.load_image(program.to_bytes())
        memory.write_word(0x8000, 0xAAAA)  # RAM shadow that must stay hidden
        reads: list[int] = []

        def bus_read(address: int) -> int:
            reads.append(address)
            return 0x5555

        cpu = MipsCpu(memory, bus_read=bus_read, peripheral_base=0x8000)
        done = 0
        while done < 4:
            done += cpu.run_block(4 - done)
        assert reads == [0x8000]
        assert cpu.read_register(register_number("$t1")) == 0x5555

    def test_peripheral_access_allowed_as_first_instruction(self):
        source = """
            lui   $t0, 0x1000
            lw    $t2, 0($t0)
            halt: beq $zero, $zero, halt
        """
        cpu, reads, _ = self.make_bus_cpu(source)
        assert cpu.run_block(1) == 1    # lui
        assert cpu.run_block(1) == 1    # the peripheral load itself
        assert reads == [0x1000_0000]


class TestPlatformBlockScheduling:
    @pytest.mark.parametrize("block", [1, 7, 256, 10_000])
    def test_instruction_count_is_block_size_invariant(self, block):
        from repro.circuits import build_rc_filter
        from repro.core import abstract_circuit
        from repro.sim import SquareWave

        model = abstract_circuit(build_rc_filter(1), "out", 50e-9)
        platform = SmartSystemPlatform(cpu_block_cycles=block)
        platform.attach_analog_python(model, {"vin": SquareWave(period=40e-6)})
        result = platform.run(100e-6)
        # 100 us at 20 MHz: exactly 2000 CPU cycles, one instruction each.
        assert result.instructions == 2000

    def test_signed_helpers_still_exported(self):
        # Regression guard: the ISA helpers remain the public signed-view API.
        assert to_signed_32(0xFFFFFFFF) == -1


#: The platform's nominal CPU clock period (20 MHz).
CPU_PERIOD = 50e-9


def make_firmware_loop_cpu() -> MipsCpu:
    """A CPU loaded with :data:`FIRMWARE_STYLE_LOOP` (no peripherals)."""
    memory = Memory(size=64 * 1024)
    memory.load_image(assemble(FIRMWARE_STYLE_LOOP).to_bytes())
    return MipsCpu(memory, superblocks=False)


def test_iss_block_and_tick_retire_identically():
    """Block mode is a pure speedup: identical architectural outcomes."""
    instructions = 20_000
    outcomes = []
    for stepper in ("tick", "block"):
        # The ISS throughput gates drive a fresh CPU through the kernel;
        # replicate their setup here to capture the final architectural state.
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
