"""Two-pass assembler for the MIPS subset of :mod:`repro.vp.mips.isa`.

The assembler turns firmware source (labels, instructions, ``.word`` data,
``#`` comments) into a list of 32-bit machine words that the instruction-set
simulator fetches from memory.  A handful of pseudo-instructions (``nop``,
``li``, ``la``, ``move``, ``b`` and the signed branch comparisons) are
expanded into the hardware subset, as a real assembler would.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ...errors import AssemblerError
from .isa import (
    INSTRUCTIONS,
    encode_i,
    encode_j,
    encode_r,
    register_number,
)

_LABEL_PATTERN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass
class AssembledProgram:
    """The output of the assembler."""

    words: list[int]
    symbols: dict[str, int]
    base_address: int = 0

    def to_bytes(self) -> bytes:
        """Little-endian byte image of the program."""
        image = bytearray()
        for word in self.words:
            image.extend(int(word & 0xFFFFFFFF).to_bytes(4, "little"))
        return bytes(image)


@dataclass
class _Line:
    """One statement after the first pass (mnemonic + operands + address)."""

    mnemonic: str
    operands: list[str]
    address: int
    source_line: int


class Assembler:
    """Two-pass assembler: pass 1 assigns addresses, pass 2 encodes."""

    def __init__(self, base_address: int = 0) -> None:
        self.base_address = base_address

    # -- public API -------------------------------------------------------------------
    def assemble(self, source: str) -> AssembledProgram:
        """Assemble ``source`` and return the machine-code image."""
        statements, symbols = self._first_pass(source)
        words: list[int] = []
        for statement in statements:
            words.extend(self._encode(statement, symbols))
        return AssembledProgram(words, symbols, self.base_address)

    # -- pass 1 -------------------------------------------------------------------------
    def _first_pass(self, source: str) -> tuple[list[_Line], dict[str, int]]:
        statements: list[_Line] = []
        symbols: dict[str, int] = {}
        address = self.base_address
        for line_number, raw_line in enumerate(source.splitlines(), start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            while ":" in line:
                label, _, remainder = line.partition(":")
                label = label.strip()
                if not _LABEL_PATTERN.match(label):
                    raise AssemblerError(
                        f"invalid label {label!r} at line {line_number}"
                    )
                if label in symbols:
                    raise AssemblerError(
                        f"duplicate label {label!r} at line {line_number}"
                    )
                symbols[label] = address
                line = remainder.strip()
            if not line:
                continue
            mnemonic, _, rest = line.partition(" ")
            mnemonic = mnemonic.lower()
            operands = [operand.strip() for operand in rest.split(",")] if rest.strip() else []
            statement = _Line(mnemonic, operands, address, line_number)
            statements.append(statement)
            address += 4 * self._word_count(statement)
        return statements, symbols

    def _word_count(self, statement: _Line) -> int:
        mnemonic = statement.mnemonic
        if mnemonic in (".word",):
            return max(1, len(statement.operands))
        if mnemonic == ".space":
            return (self._parse_number(statement.operands[0]) + 3) // 4
        if mnemonic in (".text", ".data", ".globl", ".global"):
            return 0
        if mnemonic in ("li", "la"):
            return 2
        if mnemonic in ("bgt", "blt", "bge", "ble"):
            return 2
        return 1

    # -- pass 2 ---------------------------------------------------------------------------
    def _encode(self, statement: _Line, symbols: dict[str, int]) -> list[int]:
        mnemonic = statement.mnemonic
        operands = statement.operands
        try:
            if mnemonic in (".text", ".data", ".globl", ".global"):
                return []
            if mnemonic == ".word":
                return [self._value(operand, symbols) & 0xFFFFFFFF for operand in operands] or [0]
            if mnemonic == ".space":
                return [0] * self._word_count(statement)
            if mnemonic == "nop":
                return [0]
            if mnemonic == "move":
                rd, rs = operands
                return [encode_r(0x21, register_number(rs), 0, register_number(rd))]
            if mnemonic in ("li", "la"):
                return self._encode_load_immediate(operands, symbols)
            if mnemonic == "b":
                return [self._encode_branch("beq", ["$zero", "$zero", operands[0]], statement, symbols)]
            if mnemonic in ("bgt", "blt", "bge", "ble"):
                return self._encode_compare_branch(mnemonic, operands, statement, symbols)
            if mnemonic in ("beq", "bne"):
                return [self._encode_branch(mnemonic, operands, statement, symbols)]
            if mnemonic in ("blez", "bgtz"):
                spec = INSTRUCTIONS[mnemonic]
                rs = register_number(operands[0])
                offset = self._branch_offset(operands[1], statement, symbols)
                return [encode_i(spec.opcode, rs, 0, offset)]
            if mnemonic in ("j", "jal"):
                spec = INSTRUCTIONS[mnemonic]
                target = self._value(operands[0], symbols)
                return [encode_j(spec.opcode, target >> 2)]
            if mnemonic == "jr":
                (rs,) = operands
                return [encode_r(INSTRUCTIONS["jr"].funct, register_number(rs), 0, 0)]
            if mnemonic == "jalr":  # jalr rs (links $ra) or jalr rd, rs
                rd, rs = operands if len(operands) == 2 else ("$ra", *operands)
                funct = INSTRUCTIONS["jalr"].funct
                return [encode_r(funct, register_number(rs), 0, register_number(rd))]
            if mnemonic in ("sll", "srl", "sra"):
                spec = INSTRUCTIONS[mnemonic]
                rd, rt, shamt = operands
                return [
                    encode_r(
                        spec.funct,
                        0,
                        register_number(rt),
                        register_number(rd),
                        self._parse_number(shamt),
                    )
                ]
            if mnemonic in ("mfhi", "mflo"):
                spec = INSTRUCTIONS[mnemonic]
                return [encode_r(spec.funct, 0, 0, register_number(operands[0]))]
            if mnemonic in ("mult", "multu", "div", "divu"):
                spec = INSTRUCTIONS[mnemonic]
                rs, rt = operands
                return [encode_r(spec.funct, register_number(rs), register_number(rt), 0)]
            if mnemonic in INSTRUCTIONS and INSTRUCTIONS[mnemonic].format == "R":
                spec = INSTRUCTIONS[mnemonic]
                rd, rs, rt = operands
                return [
                    encode_r(
                        spec.funct,
                        register_number(rs),
                        register_number(rt),
                        register_number(rd),
                    )
                ]
            if mnemonic in ("lw", "sw", "lb", "lbu", "sb"):
                return [self._encode_memory(mnemonic, operands, symbols)]
            if mnemonic == "lui":
                spec = INSTRUCTIONS[mnemonic]
                rt, immediate = operands
                return [encode_i(spec.opcode, 0, register_number(rt), self._value(immediate, symbols))]
            if mnemonic in INSTRUCTIONS and INSTRUCTIONS[mnemonic].format == "I":
                spec = INSTRUCTIONS[mnemonic]
                rt, rs, immediate = operands
                return [
                    encode_i(
                        spec.opcode,
                        register_number(rs),
                        register_number(rt),
                        self._value(immediate, symbols),
                    )
                ]
        except AssemblerError:
            raise
        except Exception as exc:
            raise AssemblerError(
                f"cannot assemble {mnemonic!r} at line {statement.source_line}: {exc}"
            ) from exc
        raise AssemblerError(
            f"unknown mnemonic {mnemonic!r} at line {statement.source_line}"
        )

    # -- helpers ------------------------------------------------------------------------------
    def _encode_load_immediate(self, operands: list[str], symbols: dict[str, int]) -> list[int]:
        register, value_text = operands
        value = self._value(value_text, symbols) & 0xFFFFFFFF
        rt = register_number(register)
        upper = (value >> 16) & 0xFFFF
        lower = value & 0xFFFF
        return [
            encode_i(INSTRUCTIONS["lui"].opcode, 0, rt, upper),
            encode_i(INSTRUCTIONS["ori"].opcode, rt, rt, lower),
        ]

    def _encode_compare_branch(
        self, mnemonic: str, operands: list[str], statement: _Line, symbols: dict[str, int]
    ) -> list[int]:
        rs, rt, label = operands
        at = "$at"
        if mnemonic == "bgt":  # rs > rt  ->  slt $at, rt, rs ; bne $at, $zero, label
            first = encode_r(0x2A, register_number(rt), register_number(rs), register_number(at))
            branch = "bne"
        elif mnemonic == "blt":  # rs < rt
            first = encode_r(0x2A, register_number(rs), register_number(rt), register_number(at))
            branch = "bne"
        elif mnemonic == "bge":  # rs >= rt  ->  slt $at, rs, rt ; beq $at, $zero, label
            first = encode_r(0x2A, register_number(rs), register_number(rt), register_number(at))
            branch = "beq"
        else:  # ble: rs <= rt  ->  slt $at, rt, rs ; beq
            first = encode_r(0x2A, register_number(rt), register_number(rs), register_number(at))
            branch = "beq"
        shifted = _Line(branch, [], statement.address + 4, statement.source_line)
        second = self._encode_branch(branch, [at, "$zero", label], shifted, symbols)
        return [first, second]

    def _encode_branch(
        self, mnemonic: str, operands: list[str], statement: _Line, symbols: dict[str, int]
    ) -> int:
        spec = INSTRUCTIONS[mnemonic]
        rs, rt, label = operands
        offset = self._branch_offset(label, statement, symbols)
        return encode_i(spec.opcode, register_number(rs), register_number(rt), offset)

    def _branch_offset(self, label: str, statement: _Line, symbols: dict[str, int]) -> int:
        target = self._value(label, symbols)
        offset = (target - (statement.address + 4)) // 4
        if not -32768 <= offset <= 32767:
            raise AssemblerError(
                f"branch target {label!r} is out of range at line {statement.source_line}"
            )
        return offset & 0xFFFF

    def _encode_memory(self, mnemonic: str, operands: list[str], symbols: dict[str, int]) -> int:
        spec = INSTRUCTIONS[mnemonic]
        rt, address = operands
        match = re.match(r"^(.*)\((\$?\w+)\)$", address.strip())
        if match:
            offset_text, base = match.groups()
            offset = self._value(offset_text or "0", symbols)
            rs = register_number(base)
        else:
            offset = self._value(address, symbols)
            rs = 0
        return encode_i(spec.opcode, rs, register_number(rt), offset)

    def _value(self, text: str, symbols: dict[str, int]) -> int:
        text = text.strip()
        if text in symbols:
            return symbols[text]
        return self._parse_number(text)

    @staticmethod
    def _parse_number(text: str) -> int:
        text = text.strip()
        try:
            return int(text, 0)
        except ValueError as exc:
            raise AssemblerError(f"cannot parse the value {text!r}") from exc


def assemble(source: str, base_address: int = 0) -> AssembledProgram:
    """Assemble ``source`` with a default-configured :class:`Assembler`."""
    return Assembler(base_address).assemble(source)
