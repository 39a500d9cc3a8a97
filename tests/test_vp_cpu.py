"""Tests for the MIPS assembler and instruction-set simulator."""

from __future__ import annotations

import pytest

from repro.errors import AssemblerError, BusError, CpuFault
from repro.vp import Memory, MipsCpu, assemble
from repro.vp.mips.isa import register_number, sign_extend_16, to_signed_32


def run_program(source: str, max_steps: int = 10_000, memory_size: int = 64 * 1024) -> MipsCpu:
    """Assemble, load and run a program until it reaches a `halt:` spin loop."""
    program = assemble(source)
    memory = Memory(size=memory_size)
    memory.load_image(program.to_bytes())
    cpu = MipsCpu(memory)
    halt_address = program.symbols.get("halt")
    for _ in range(max_steps):
        cpu.step()
        if halt_address is not None and cpu.pc == halt_address and cpu.instruction_count > 1:
            break
    return cpu


class TestIsaHelpers:
    def test_register_aliases(self):
        assert register_number("$zero") == 0
        assert register_number("$t0") == 8
        assert register_number("$sp") == 29
        assert register_number("31") == 31
        with pytest.raises(KeyError):
            register_number("$nope")

    def test_sign_extension(self):
        assert sign_extend_16(0x0005) == 5
        assert sign_extend_16(0xFFFF) == -1
        assert to_signed_32(0xFFFFFFFF) == -1
        assert to_signed_32(5) == 5


class TestAssembler:
    def test_round_trip_encoding(self):
        program = assemble("addu $t0, $t1, $t2\n")
        assert program.words == [0x012A4021]

    def test_labels_and_branches(self):
        program = assemble(
            """
            start: beq $zero, $zero, target
                   nop
            target: nop
            """
        )
        # Branch offset counts words from the delay-slot position.
        assert program.words[0] & 0xFFFF == 1

    def test_li_expands_to_two_words(self):
        program = assemble("li $t0, 0x12345678\n")
        assert len(program.words) == 2

    def test_word_directive_and_symbols(self):
        program = assemble(
            """
            value: .word 0xDEADBEEF
            other: .word 1, 2, 3
            """
        )
        assert program.words == [0xDEADBEEF, 1, 2, 3]
        assert program.symbols["other"] == 4

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate $t0, $t1\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a: nop\na: nop\n")

    def test_branch_out_of_range_rejected(self):
        source = "start: nop\n" + ".space 300000\n" + "beq $zero, $zero, start\n"
        with pytest.raises(AssemblerError):
            assemble(source)

    def test_jalr_takes_rd_then_rs(self):
        # jalr $t0, $s6: rs = $s6 (22), rd = $t0 (8); one operand links $ra.
        assert assemble("jalr $t0, $s6\n").words == [0x02C04009]
        assert assemble("jalr $s6\n").words == [0x02C0F809]
        assert assemble("jr $s6\n").words == [0x02C00008]

    @pytest.mark.parametrize("source", ["jr $t0, $s6", "jalr $t0, $s6, $s7", "jalr"])
    def test_jump_register_operand_count_checked(self, source):
        with pytest.raises(AssemblerError):
            assemble(source + "\n")

    def test_image_is_little_endian(self):
        program = assemble(".word 0x11223344\n")
        assert program.to_bytes() == bytes([0x44, 0x33, 0x22, 0x11])


class TestCpuInstructions:
    def test_arithmetic_and_logic(self):
        cpu = run_program(
            """
            li   $t0, 10
            li   $t1, 3
            addu $t2, $t0, $t1      # 13
            subu $t3, $t0, $t1      # 7
            and  $t4, $t0, $t1      # 2
            or   $t5, $t0, $t1      # 11
            xor  $t6, $t0, $t1      # 9
            slt  $t7, $t1, $t0      # 1
            halt: beq $zero, $zero, halt
            """
        )
        assert cpu.read_register(register_number("$t2")) == 13
        assert cpu.read_register(register_number("$t3")) == 7
        assert cpu.read_register(register_number("$t4")) == 2
        assert cpu.read_register(register_number("$t5")) == 11
        assert cpu.read_register(register_number("$t6")) == 9
        assert cpu.read_register(register_number("$t7")) == 1

    def test_shifts_and_immediates(self):
        cpu = run_program(
            """
            li    $t0, 1
            sll   $t1, $t0, 4       # 16
            addiu $t2, $zero, -1
            srl   $t3, $t2, 28      # 0xF
            sra   $t4, $t2, 16      # still -1
            andi  $t5, $t2, 0xFF    # 0xFF
            ori   $t6, $zero, 0xABC
            slti  $t7, $t0, 5       # 1
            halt: beq $zero, $zero, halt
            """
        )
        assert cpu.read_register(register_number("$t1")) == 16
        assert cpu.read_register(register_number("$t3")) == 0xF
        assert to_signed_32(cpu.read_register(register_number("$t4"))) == -1
        assert cpu.read_register(register_number("$t5")) == 0xFF
        assert cpu.read_register(register_number("$t6")) == 0xABC
        assert cpu.read_register(register_number("$t7")) == 1

    def test_memory_loads_and_stores(self):
        cpu = run_program(
            """
            li   $t0, 0x1000        # data area inside RAM
            li   $t1, 0x12345678
            sw   $t1, 0($t0)
            lw   $t2, 0($t0)
            sb   $t1, 8($t0)
            lbu  $t3, 8($t0)
            lb   $t4, 8($t0)
            halt: beq $zero, $zero, halt
            """
        )
        assert cpu.read_register(register_number("$t2")) == 0x12345678
        assert cpu.read_register(register_number("$t3")) == 0x78
        assert cpu.read_register(register_number("$t4")) == 0x78

    def test_loop_with_branches_and_jumps(self):
        cpu = run_program(
            """
            li    $t0, 0            # counter
            li    $t1, 5            # limit
            loop: addiu $t0, $t0, 1
            bne   $t0, $t1, loop
            jal   subroutine
            j     halt
            subroutine: addiu $t2, $zero, 99
            jr    $ra
            halt: beq $zero, $zero, halt
            """
        )
        assert cpu.read_register(register_number("$t0")) == 5
        assert cpu.read_register(register_number("$t2")) == 99

    def test_multiplication_and_division(self):
        cpu = run_program(
            """
            li    $t0, 7
            li    $t1, 6
            mult  $t0, $t1
            mflo  $t2               # 42
            li    $t3, 43
            divu  $t3, $t1
            mflo  $t4               # 7
            mfhi  $t5               # 1
            halt: beq $zero, $zero, halt
            """
        )
        assert cpu.read_register(register_number("$t2")) == 42
        assert cpu.read_register(register_number("$t4")) == 7
        assert cpu.read_register(register_number("$t5")) == 1

    def test_signed_division_truncates_toward_zero(self):
        # -7 / 2 = -3 rem -1 (truncation, not floor: floor would give -4 rem 1).
        cpu = run_program(
            """
            li    $t0, -7
            li    $t1, 2
            div   $t0, $t1
            mflo  $t2
            mfhi  $t3
            li    $t4, 7
            li    $t5, -2
            div   $t4, $t5
            mflo  $t6
            mfhi  $t7
            li    $s0, -7
            li    $s1, -2
            div   $s0, $s1
            mflo  $s2
            mfhi  $s3
            halt: beq $zero, $zero, halt
            """
        )
        assert to_signed_32(cpu.read_register(register_number("$t2"))) == -3
        assert to_signed_32(cpu.read_register(register_number("$t3"))) == -1
        assert to_signed_32(cpu.read_register(register_number("$t6"))) == -3
        assert to_signed_32(cpu.read_register(register_number("$t7"))) == 1
        assert to_signed_32(cpu.read_register(register_number("$s2"))) == 3
        assert to_signed_32(cpu.read_register(register_number("$s3"))) == -1

    def test_division_is_exact_at_int_extremes(self):
        # INT_MAX / 1 must be exact: the old float round trip returned
        # int(2147483647 / 1.0) == 2147483648.  INT_MIN / -1 overflows to
        # 0x80000000 (the wrapped two's-complement result); remainder 0.
        cpu = run_program(
            """
            li    $t0, 0x7FFFFFFF
            li    $t1, 1
            div   $t0, $t1
            mflo  $t2
            mfhi  $t3
            li    $t4, 0x80000000
            li    $t5, -1
            div   $t4, $t5
            mflo  $t6
            mfhi  $t7
            li    $s0, 5
            li    $s1, 0
            div   $s0, $s1
            mflo  $s2
            mfhi  $s3
            halt: beq $zero, $zero, halt
            """
        )
        assert cpu.read_register(register_number("$t2")) == 0x7FFFFFFF
        assert cpu.read_register(register_number("$t3")) == 0
        assert cpu.read_register(register_number("$t6")) == 0x80000000
        assert cpu.read_register(register_number("$t7")) == 0
        # Division by zero leaves hi/lo cleared (the documented model).
        assert cpu.read_register(register_number("$s2")) == 0
        assert cpu.read_register(register_number("$s3")) == 0

    def test_jalr_links_the_named_register(self):
        cpu = run_program(
            """
                    la    $s6, target
                    jalr  $t0, $s6
                    li    $t1, 1              # jumped over
            target: li    $t2, 2
            halt:   beq   $zero, $zero, halt
            """
        )
        assert cpu.read_register(register_number("$t0")) == 12
        assert cpu.read_register(register_number("$ra")) == 0
        assert cpu.read_register(register_number("$t1")) == 0
        assert cpu.read_register(register_number("$t2")) == 2

    def test_jalr_to_zero_links_nowhere(self):
        cpu = run_program(
            """
                    la    $s6, target
                    .word 0x02C00009          # jalr $zero, $s6
                    li    $t1, 1              # jumped over
            target: li    $t2, 2
            halt:   beq   $zero, $zero, halt
            """
        )
        expected = [0] * 32  # $zero and $ra included
        expected[register_number("$s6")] = 20
        expected[register_number("$t2")] = 2
        assert cpu.registers[:32] == expected

    def test_register_zero_is_immutable(self):
        cpu = run_program(
            """
            li $zero, 55
            halt: beq $zero, $zero, halt
            """
        )
        assert cpu.read_register(0) == 0

    def test_pseudo_branches(self):
        cpu = run_program(
            """
            li   $t0, 3
            li   $t1, 7
            blt  $t0, $t1, smaller
            li   $t2, 111
            j    halt
            smaller: li $t2, 222
            halt: beq $zero, $zero, halt
            """
        )
        assert cpu.read_register(register_number("$t2")) == 222

    def test_illegal_instruction_faults(self):
        memory = Memory()
        memory.write_word(0, 0xFC000000)  # opcode 0x3F is unimplemented
        cpu = MipsCpu(memory)
        with pytest.raises(CpuFault):
            cpu.step()

    def test_peripheral_access_without_bus_faults(self):
        cpu = run_program  # silence lint
        memory = Memory()
        program = assemble("lui $t0, 0x1000\nlw $t1, 0($t0)\n")
        memory.load_image(program.to_bytes())
        cpu = MipsCpu(memory)
        cpu.step()
        with pytest.raises(CpuFault):
            cpu.step()

    def test_out_of_range_memory_access(self):
        memory = Memory(size=1024)
        with pytest.raises(BusError):
            memory.read_word(4096)
        with pytest.raises(BusError):
            memory.write_byte(-1, 0)
