"""MIPS instruction-set simulator executing inside the discrete-event kernel.

The CPU is the master of the virtual platform: it fetches 32-bit instructions
from memory, executes them, and issues loads/stores either to its tightly
coupled RAM or — for addresses inside the peripheral window — to the APB bus.
Branch delay slots are not modelled (the assembler never schedules anything
useful in them), which keeps the programmer's model simple without affecting
the platform-level timing picture.

Execution model
---------------
Every code word is decoded **once** into a prebound executor tuple (opcode
kind, register indices, sign-extended immediates and absolute branch targets
resolved at decode time) cached per word address.  :meth:`MipsCpu.run_block`
then executes decoded instructions in a tight local loop — registers, memory
and the decode cache bound to locals, taken branches followed in place —
yielding back only when it reaches a peripheral-window load/store that is not
the first instruction of the block, the halt flag, or the cycle budget.
Peripheral accesses are therefore always the *first* instruction of a block,
which is what lets the platform's block driver schedule them on exactly the
same clock cycle as the classic one-instruction-per-tick interpreter.

The decode cache is invalidated by the CPU's own stores (inline, in the hot
loop) and by a :meth:`~repro.vp.memory.Memory.add_write_watcher` hook for
external writes (firmware reloads via ``load_image``, ``clear``, tests poking
at code), so self-modifying code re-decodes and stays architecturally exact.
"""

from __future__ import annotations

import copy
import sys
from typing import Callable

from ...errors import CpuFault
from ..memory import Memory
from .isa import WORD_MASK

#: Aligned word accesses go through a ``memoryview(...).cast("I")`` of the
#: RAM, which needs native little-endian byte order (every supported target);
#: on a big-endian host the executor falls back to the byte-wise path.
_NATIVE_LITTLE_ENDIAN = sys.byteorder == "little"

#: Decoded-instruction kinds.  Loads/stores and branches get their own kinds
#: so the block executor can special-case the peripheral window and follow
#: branch targets without re-inspecting opcode fields.
_NOP = 0
_SLL = 1
_SRL = 2
_SRA = 3
_JR = 4
_JALR = 5
_ADDU = 6
_SUBU = 7
_AND = 8
_OR = 9
_XOR = 10
_NOR = 11
_SLT = 12
_SLTU = 13
_MULT = 14
_MULTU = 15
_DIV = 16
_DIVU = 17
_MFHI = 18
_MFLO = 19
_ADDIU = 20
_SLTI = 21
_SLTIU = 22
_ANDI = 23
_ORI = 24
_XORI = 25
_LUI = 26
_LW = 27
_LB = 28
_LBU = 29
_SW = 30
_SB = 31
_BEQ = 32
_BNE = 33
_BLEZ = 34
_BGTZ = 35
_J = 36
_JAL = 37

#: Destination index used for writes to ``$zero``: decode redirects them to a
#: scratch slot past the 32 architectural registers, so the hot loop never
#: needs a per-write "is this register 0" test and ``registers[0]`` stays 0.
_ZERO_SINK = 32

#: Block-entry heat at which a superblock is compiled (see superblock.py);
#: bound here so the hot loop reads it as a module global, the authoritative
#: value lives next to the compiler.
_SB_THRESHOLD = 4

_R_ALU = {
    0x20: _ADDU, 0x21: _ADDU,
    0x22: _SUBU, 0x23: _SUBU,
    0x24: _AND, 0x25: _OR, 0x26: _XOR, 0x27: _NOR,
    0x2A: _SLT, 0x2B: _SLTU,
}

_I_ALU = {
    0x08: _ADDIU, 0x09: _ADDIU,
    0x0A: _SLTI, 0x0C: _ANDI, 0x0D: _ORI, 0x0E: _XORI,
}


def decode_word(word: int, pc: int) -> tuple:
    """Decode one 32-bit instruction word fetched from address ``pc``.

    Returns a 4-tuple ``(kind, a, b, c)`` whose operand meaning depends on
    the kind; immediates are sign-extended and branch/jump targets resolved
    to absolute addresses, so the executor never touches encoding fields.
    Raises :class:`CpuFault` for words outside the implemented subset.
    """
    if word == 0:
        return (_NOP, 0, 0, 0)
    opcode = (word >> 26) & 0x3F
    rs = (word >> 21) & 0x1F
    rt = (word >> 16) & 0x1F

    if opcode == 0x00:
        rd = (word >> 11) & 0x1F
        dest = rd if rd else _ZERO_SINK
        funct = word & 0x3F
        alu = _R_ALU.get(funct)
        if alu is not None:
            return (alu, dest, rs, rt)
        if funct == 0x00:  # sll
            return (_SLL, dest, rt, (word >> 6) & 0x1F)
        if funct == 0x02:  # srl
            return (_SRL, dest, rt, (word >> 6) & 0x1F)
        if funct == 0x03:  # sra
            return (_SRA, dest, rt, (word >> 6) & 0x1F)
        if funct == 0x08:  # jr
            return (_JR, rs, 0, 0)
        if funct == 0x09:  # jalr
            return (_JALR, rd if rd else 31, rs, (pc + 4) & WORD_MASK)
        if funct == 0x18:  # mult
            return (_MULT, rs, rt, 0)
        if funct == 0x19:  # multu
            return (_MULTU, rs, rt, 0)
        if funct == 0x1A:  # div
            return (_DIV, rs, rt, 0)
        if funct == 0x1B:  # divu
            return (_DIVU, rs, rt, 0)
        if funct == 0x10:  # mfhi
            return (_MFHI, dest, 0, 0)
        if funct == 0x12:  # mflo
            return (_MFLO, dest, 0, 0)
        raise CpuFault(
            f"unimplemented R-type funct {funct:#04x} at pc {pc:#010x}"
        )

    if opcode in (0x02, 0x03):
        target = (pc & 0xF000_0000) | ((word & 0x03FF_FFFF) << 2)
        if opcode == 0x02:
            return (_J, target, 0, 0)
        return (_JAL, target, (pc + 4) & WORD_MASK, 0)

    immediate = word & 0xFFFF
    signed = immediate - 0x10000 if immediate & 0x8000 else immediate
    dest = rt if rt else _ZERO_SINK
    alu = _I_ALU.get(opcode)
    if alu is not None:
        if alu in (_ANDI, _ORI, _XORI):
            return (alu, dest, rs, immediate)
        return (alu, dest, rs, signed)
    if opcode == 0x0B:  # sltiu compares against the sign-extended, remasked imm
        return (_SLTIU, dest, rs, signed & WORD_MASK)
    if opcode == 0x0F:  # lui
        return (_LUI, dest, (immediate << 16) & WORD_MASK, 0)
    if opcode == 0x23:  # lw
        return (_LW, dest, rs, signed)
    if opcode == 0x20:  # lb
        return (_LB, dest, rs, signed)
    if opcode == 0x24:  # lbu
        return (_LBU, dest, rs, signed)
    if opcode == 0x2B:  # sw
        return (_SW, rt, rs, signed)
    if opcode == 0x28:  # sb
        return (_SB, rt, rs, signed)
    branch_target = (pc + 4 + (signed << 2)) & WORD_MASK
    if opcode == 0x04:  # beq
        return (_BEQ, rs, rt, branch_target)
    if opcode == 0x05:  # bne
        return (_BNE, rs, rt, branch_target)
    if opcode == 0x06:  # blez
        return (_BLEZ, rs, branch_target, 0)
    if opcode == 0x07:  # bgtz
        return (_BGTZ, rs, branch_target, 0)
    raise CpuFault(
        f"unimplemented opcode {opcode:#04x} at pc {pc:#010x}"
    )


class MipsCpu:
    """A functional MIPS-I subset core with a predecoded instruction cache.

    Parameters
    ----------
    memory:
        Backing RAM holding code and data.
    bus_read / bus_write:
        Callables used for addresses at or above ``peripheral_base``.
    peripheral_base:
        Start of the memory-mapped peripheral window.
    """

    def __init__(
        self,
        memory: Memory,
        bus_read: Callable[[int], int] | None = None,
        bus_write: Callable[[int, int], None] | None = None,
        peripheral_base: int = 0x1000_0000,
        superblocks: bool = True,
    ) -> None:
        self.memory = memory
        self.bus_read = bus_read
        self.bus_write = bus_write
        self.peripheral_base = peripheral_base
        # 32 architectural registers plus the $zero write sink (see
        # _ZERO_SINK); values are kept masked to 32 bits at all times.
        self.registers = [0] * 33
        self.hi = 0
        self.lo = 0
        self.pc = 0
        self.instruction_count = 0
        self.load_count = 0
        self.store_count = 0
        # Observability counters.  Maintained unconditionally — but only in
        # branches that are already rare (decode misses, code-word stores,
        # external writes, end-of-block flush), so the hot dispatch loop is
        # untouched and the disabled-tracing cost is unmeasurable.
        self.block_count = 0
        self.decode_miss_count = 0
        self.decode_invalidation_count = 0
        self.halted = False
        #: Lazily filled decode cache, one slot per RAM word.
        self._decoded: list[tuple | None] = [None] * (memory.size // 4)
        # Superblock tier (see vp/mips/superblock.py): hot block-entry pcs
        # are fused into specialized callables.  The generated code reads
        # RAM through the little-endian word view, so the tier disables
        # itself on big-endian hosts (the dispatch loop still runs there).
        self.superblocks = bool(superblocks) and _NATIVE_LITTLE_ENDIAN
        self.superblock_compile_count = 0
        self.superblock_hit_count = 0
        self.superblock_invalidation_count = 0
        #: entry pc -> (function, length) | False (negative-cache sentinel).
        self._superblocks: dict[int, object] = {}
        #: entry pc -> candidate heat (compiled at HEAT_THRESHOLD).
        self._sb_heat: dict[int, int] = {}
        #: entry pc -> (first word index, last word index) covered.
        self._sb_spans: dict[int, tuple[int, int]] = {}
        #: word index -> set of entry pcs whose superblock covers that word.
        self._sb_cover: list[set | None] = [None] * (memory.size // 4)
        # Bumped on every superblock drop; running superblocks compare it
        # after bus callbacks to detect that they may have been invalidated.
        self._sb_epoch = 0
        #: Scratch list through which superblocks flush pc and counters.
        self._sb_out: list[int] = [0] * 7
        memory.add_write_watcher(self._on_external_write)

    def __deepcopy__(self, memo: dict) -> "MipsCpu":
        """Copy the architectural state; share what never mutates in place.

        Decoded instruction tuples and compiled superblock functions are
        immutable, so the clone gets new containers holding the same entries
        instead of a per-entry deep copy of two RAM-sized tables.
        """
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        for name, value in vars(self).items():
            if name in ("_decoded", "_superblocks", "_sb_spans"):
                value = copy.copy(value)
            elif name == "_sb_cover":
                # The only mutable cells are the sets inside registered spans.
                value = list(value)
                for first, last in self._sb_spans.values():
                    for index in range(first, last + 1):
                        value[index] = set(value[index])
            else:
                value = copy.deepcopy(value, memo)
            setattr(clone, name, value)
        return clone

    # -- register helpers ---------------------------------------------------------------
    def read_register(self, index: int) -> int:
        """Read a register (register 0 is hard-wired to zero)."""
        return 0 if index == 0 else self.registers[index] & WORD_MASK

    def write_register(self, index: int, value: int) -> None:
        """Write a register (writes to register 0 are ignored)."""
        if index != 0:
            self.registers[index] = value & WORD_MASK

    def reset(self, pc: int = 0) -> None:
        """Reset architectural state and set the program counter.

        The decode cache is *kept*: it mirrors memory, not register state,
        and is invalidated by writes, not by reset.
        """
        self.registers = [0] * 33
        self.hi = 0
        self.lo = 0
        self.pc = pc
        self.instruction_count = 0
        self.load_count = 0
        self.store_count = 0
        self.block_count = 0
        self.decode_miss_count = 0
        self.decode_invalidation_count = 0
        self.superblock_compile_count = 0
        self.superblock_hit_count = 0
        self.superblock_invalidation_count = 0
        self.halted = False

    # -- decode-cache maintenance --------------------------------------------------------
    def _on_external_write(self, address: int, width: int) -> None:
        """Memory write watcher: drop decoded entries covering the write."""
        decoded = self._decoded
        base = self.memory.base
        first = (address - base) >> 2
        last = (address + width - 1 - base) >> 2
        if first < 0:
            first = 0
        if last >= len(decoded):
            last = len(decoded) - 1
        if first > last:
            return
        span = decoded[first : last + 1]
        invalidated = sum(1 for entry in span if entry is not None)
        self.decode_invalidation_count += invalidated
        decoded[first : last + 1] = [None] * (last - first + 1)
        if self._sb_spans:
            for entry_pc, (lo, hi) in list(self._sb_spans.items()):
                if lo <= last and hi >= first:
                    self._drop_superblock(entry_pc)

    # -- superblock-cache maintenance ----------------------------------------------------
    def _drop_superblocks_at(self, word_index: int) -> None:
        """Drop every superblock whose span covers ``word_index``."""
        cell = self._sb_cover[word_index]
        if cell:
            for entry_pc in tuple(cell):
                self._drop_superblock(entry_pc)

    def _drop_superblock(self, entry_pc: int) -> None:
        self._superblocks.pop(entry_pc, None)
        span = self._sb_spans.pop(entry_pc, None)
        self.superblock_invalidation_count += 1
        self._sb_epoch += 1
        if span is not None:
            cover = self._sb_cover
            for index in range(span[0], span[1] + 1):
                cell = cover[index]
                if cell is not None:
                    cell.discard(entry_pc)
                    if not cell:
                        cover[index] = None

    def _install_superblock(self, entry_pc: int):
        """Compile the superblock entered at ``entry_pc`` (lazy import)."""
        from .superblock import install_superblock

        return install_superblock(self, entry_pc)

    def superblock_stats(self) -> dict[str, int]:
        """Superblock-tier effectiveness counters (since construction or reset)."""
        return {
            "superblocks": sum(
                1 for entry in self._superblocks.values() if entry is not False
            ),
            "superblock_compiles": self.superblock_compile_count,
            "superblock_hits": self.superblock_hit_count,
            "superblock_invalidations": self.superblock_invalidation_count,
        }

    def decode_stats(self) -> dict[str, int]:
        """Decode-cache effectiveness counters (since construction or reset).

        ``decode_misses`` counts executed instructions that were not served
        from the cache (first executions, re-decodes after invalidation and
        uncacheable unaligned fetches); hits are therefore
        ``instruction_count - decode_misses``.
        """
        return {
            "blocks": self.block_count,
            "decode_misses": self.decode_miss_count,
            "decode_invalidations": self.decode_invalidation_count,
        }

    # -- memory access (slow paths, kept for direct use and the bus window) --------------
    def _load_word(self, address: int) -> int:
        self.load_count += 1
        if address >= self.peripheral_base:
            if self.bus_read is None:
                raise CpuFault(f"load from unmapped peripheral address {address:#x}")
            return self.bus_read(address) & WORD_MASK
        return self.memory.read_word(address)

    def _store_word(self, address: int, value: int) -> None:
        self.store_count += 1
        if address >= self.peripheral_base:
            if self.bus_write is None:
                raise CpuFault(f"store to unmapped peripheral address {address:#x}")
            self.bus_write(address, value & WORD_MASK)
            return
        self.memory.write_word(address, value)

    def _load_byte(self, address: int, signed: bool) -> int:
        self.load_count += 1
        if address >= self.peripheral_base:
            if self.bus_read is None:
                raise CpuFault(f"load from unmapped peripheral address {address:#x}")
            value = self.bus_read(address & ~0x3) >> (8 * (address & 0x3))
            value &= 0xFF
        else:
            value = self.memory.read_byte(address)
        if signed and value & 0x80:
            value -= 0x100
        return value & WORD_MASK

    def _store_byte(self, address: int, value: int) -> None:
        self.store_count += 1
        if address >= self.peripheral_base:
            if self.bus_write is None:
                raise CpuFault(f"store to unmapped peripheral address {address:#x}")
            self.bus_write(address, value & 0xFF)
            return
        self.memory.write_byte(address, value & 0xFF)

    # -- execution -----------------------------------------------------------------------------
    def step(self) -> None:
        """Fetch, decode (cached) and execute exactly one instruction."""
        self.run_block(1)

    def run_block(self, max_instructions: int) -> int:
        """Execute up to ``max_instructions`` decoded instructions in one burst.

        Runs a tight local loop over the decode cache, following taken
        branches, and yields back early only at:

        * a peripheral-window load/store that is **not** the first
          instruction of the block (left unexecuted, so the caller can
          reschedule it on its exact clock cycle);
        * the ``halted`` flag;
        * the instruction budget.

        Returns the number of instructions actually executed.  Architectural
        state (``pc``, counters) is flushed back even when an instruction
        faults mid-block, leaving exactly the same state as single-stepping.
        """
        if self.halted or max_instructions <= 0:
            return 0
        # Everything the hot loop touches is bound to locals — including the
        # kind constants, so every dispatch comparison is a LOAD_FAST.
        K_NOP = _NOP; K_SLL = _SLL; K_SRL = _SRL; K_SRA = _SRA  # noqa: E702
        K_JR = _JR; K_JALR = _JALR; K_ADDU = _ADDU; K_SUBU = _SUBU  # noqa: E702
        K_AND = _AND; K_OR = _OR; K_XOR = _XOR; K_NOR = _NOR  # noqa: E702
        K_SLT = _SLT; K_SLTU = _SLTU; K_MULT = _MULT; K_MULTU = _MULTU  # noqa: E702
        K_DIV = _DIV; K_DIVU = _DIVU; K_MFHI = _MFHI; K_MFLO = _MFLO  # noqa: E702
        K_ADDIU = _ADDIU; K_SLTI = _SLTI; K_SLTIU = _SLTIU  # noqa: E702
        K_ANDI = _ANDI; K_ORI = _ORI; K_XORI = _XORI; K_LUI = _LUI  # noqa: E702
        K_LW = _LW; K_LB = _LB; K_LBU = _LBU; K_SW = _SW; K_SB = _SB  # noqa: E702
        K_BEQ = _BEQ; K_BNE = _BNE; K_BLEZ = _BLEZ; K_BGTZ = _BGTZ  # noqa: E702
        K_J = _J; K_JAL = _JAL  # noqa: E702
        decoded = self._decoded
        sb_cover = self._sb_cover
        reg = self.registers
        mem = self.memory
        data = mem._data
        words = memoryview(data).cast("I") if _NATIVE_LITTLE_ENDIAN else None
        mbase = mem.base
        msize = mem.size
        periph = self.peripheral_base
        # The word fast path must never swallow a peripheral access, so its
        # window ends at the peripheral base even if (in exotic configs) the
        # RAM range overlaps the peripheral window — bus precedence matches
        # the _load_word/_store_word slow paths.
        msize4 = min(msize, periph - mbase) - 4
        pc = self.pc
        executed = 0
        loads = 0
        stores = 0
        mem_reads = 0
        mem_writes = 0
        misses = 0
        invalidations = 0
        M = WORD_MASK
        sb_stop = False
        try:
            # Superblock tier: at the block entry (and after each superblock
            # exit, so consecutive compiled regions chain), look the pc up in
            # the superblock cache; on a miss, heat-count it toward
            # compilation.  A superblock is only entered while the remaining
            # budget covers one full pass — the tail of a block, and every
            # per-tick step() (budget 1), runs through the dispatch loop
            # below, keeping block-size invariance bit-exact.
            if self.superblocks and words is not None and max_instructions > 1:
                sblocks = self._superblocks
                heat = self._sb_heat
                cover = self._sb_cover
                out = self._sb_out
                hits = 0
                while executed < max_instructions:
                    entry = sblocks.get(pc)
                    if entry is None:
                        count = heat.get(pc, 0) + 1
                        if count < _SB_THRESHOLD:
                            heat[pc] = count
                            break
                        heat.pop(pc, None)
                        entry = self._install_superblock(pc)
                        if entry is False:
                            break
                    elif entry is False:
                        break
                    function, length = entry
                    if max_instructions - executed < length:
                        break
                    hits += 1
                    try:
                        sb_stop = function(
                            self, reg, decoded, data, words, cover, mem,
                            max_instructions, executed, loads, stores,
                            mem_reads, mem_writes, invalidations, out,
                        )
                    finally:
                        pc = out[0]
                        executed = out[1]
                        loads = out[2]
                        stores = out[3]
                        mem_reads = out[4]
                        mem_writes = out[5]
                        invalidations = out[6]
                    if sb_stop:
                        break
                if hits:
                    self.superblock_hit_count += hits
                if sb_stop:
                    # A peripheral access is pending (or the CPU halted):
                    # yield the block; the finally clause flushes state.
                    return executed
            while executed < max_instructions:
                offset = pc - mbase
                if 0 <= offset < msize and not offset & 3:
                    index = offset >> 2
                    entry = decoded[index]
                    if entry is None:
                        misses += 1
                        entry = decode_word(mem.read_word(pc), pc)
                        decoded[index] = entry
                else:
                    # Unaligned or out-of-range pc: decode uncached (the
                    # fetch itself raises BusError when out of range).
                    misses += 1
                    entry = decode_word(mem.read_word(pc), pc)
                k, a, b, c = entry

                if k == K_LW:
                    address = (reg[b] + c) & M
                    offset = address - mbase
                    if 0 <= offset <= msize4 and not offset & 3 and words is not None:
                        loads += 1
                        mem_reads += 1
                        reg[a] = words[offset >> 2]
                    elif address >= periph:
                        if executed:
                            break
                        loads += 1
                        if self.bus_read is None:
                            raise CpuFault(
                                f"load from unmapped peripheral address {address:#x}"
                            )
                        reg[a] = self.bus_read(address) & M
                    else:
                        loads += 1
                        if offset < 0 or offset + 4 > msize:
                            mem.read_word(address)  # raises BusError
                        mem_reads += 1
                        reg[a] = int.from_bytes(data[offset : offset + 4], "little")
                    pc += 4
                elif k == K_BEQ:
                    pc = c if reg[a] == reg[b] else pc + 4
                elif k == K_ADDIU:
                    reg[a] = (reg[b] + c) & M
                    pc += 4
                elif k == K_ADDU:
                    reg[a] = (reg[b] + reg[c]) & M
                    pc += 4
                elif k == K_SW:
                    address = (reg[b] + c) & M
                    offset = address - mbase
                    if 0 <= offset <= msize4 and not offset & 3 and words is not None:
                        stores += 1
                        mem_writes += 1
                        words[offset >> 2] = reg[a]
                        index = offset >> 2
                        if decoded[index] is not None:
                            decoded[index] = None
                            invalidations += 1
                        if sb_cover[index] is not None:
                            self._drop_superblocks_at(index)
                    elif address >= periph:
                        if executed:
                            break
                        stores += 1
                        if self.bus_write is None:
                            raise CpuFault(
                                f"store to unmapped peripheral address {address:#x}"
                            )
                        self.bus_write(address, reg[a])
                    else:
                        stores += 1
                        if offset < 0 or offset + 4 > msize:
                            mem.write_word(address, reg[a])  # raises BusError
                        data[offset : offset + 4] = reg[a].to_bytes(4, "little")
                        mem_writes += 1
                        index = offset >> 2
                        if decoded[index] is not None:
                            decoded[index] = None
                            invalidations += 1
                        if sb_cover[index] is not None:
                            self._drop_superblocks_at(index)
                        index = (offset + 3) >> 2
                        if decoded[index] is not None:
                            decoded[index] = None
                            invalidations += 1
                        if sb_cover[index] is not None:
                            self._drop_superblocks_at(index)
                    pc += 4
                elif k == K_ANDI:
                    reg[a] = reg[b] & c
                    pc += 4
                elif k == K_SLT:
                    s = reg[b]
                    t = reg[c]
                    if s > 0x7FFFFFFF:
                        s -= 0x100000000
                    if t > 0x7FFFFFFF:
                        t -= 0x100000000
                    reg[a] = 1 if s < t else 0
                    pc += 4
                elif k == K_BNE:
                    pc = c if reg[a] != reg[b] else pc + 4
                elif k == K_SUBU:
                    reg[a] = (reg[b] - reg[c]) & M
                    pc += 4
                elif k == K_NOP:
                    pc += 4
                elif k == K_J:
                    pc = a
                elif k == K_SLL:
                    reg[a] = (reg[b] << c) & M
                    pc += 4
                elif k == K_SRA:
                    t = reg[b]
                    if t > 0x7FFFFFFF:
                        t -= 0x100000000
                    reg[a] = (t >> c) & M
                    pc += 4
                elif k == K_SRL:
                    reg[a] = reg[b] >> c
                    pc += 4
                elif k == K_LUI:
                    reg[a] = b
                    pc += 4
                elif k == K_ORI:
                    reg[a] = reg[b] | c
                    pc += 4
                elif k == K_SLTI:
                    s = reg[b]
                    if s > 0x7FFFFFFF:
                        s -= 0x100000000
                    reg[a] = 1 if s < c else 0
                    pc += 4
                elif k == K_SLTIU:
                    reg[a] = 1 if reg[b] < c else 0
                    pc += 4
                elif k == K_BLEZ:
                    s = reg[a]
                    pc = b if (s == 0 or s > 0x7FFFFFFF) else pc + 4
                elif k == K_BGTZ:
                    s = reg[a]
                    pc = b if 0 < s <= 0x7FFFFFFF else pc + 4
                elif k == K_XORI:
                    reg[a] = reg[b] ^ c
                    pc += 4
                elif k == K_AND:
                    reg[a] = reg[b] & reg[c]
                    pc += 4
                elif k == K_OR:
                    reg[a] = reg[b] | reg[c]
                    pc += 4
                elif k == K_XOR:
                    reg[a] = reg[b] ^ reg[c]
                    pc += 4
                elif k == K_NOR:
                    reg[a] = ~(reg[b] | reg[c]) & M
                    pc += 4
                elif k == K_SLTU:
                    reg[a] = 1 if reg[b] < reg[c] else 0
                    pc += 4
                elif k == K_LB or k == K_LBU:
                    address = (reg[b] + c) & M
                    if address >= periph:
                        if executed:
                            break
                        loads += 1
                        if self.bus_read is None:
                            raise CpuFault(
                                f"load from unmapped peripheral address {address:#x}"
                            )
                        value = (self.bus_read(address & ~0x3) >> (8 * (address & 0x3))) & 0xFF
                    else:
                        loads += 1
                        offset = address - mbase
                        if offset < 0 or offset >= msize:
                            mem.read_byte(address)  # raises BusError
                        mem_reads += 1
                        value = data[offset]
                    if k == K_LB and value & 0x80:
                        value = (value - 0x100) & M
                    reg[a] = value
                    pc += 4
                elif k == K_SB:
                    address = (reg[b] + c) & M
                    if address >= periph:
                        if executed:
                            break
                        stores += 1
                        if self.bus_write is None:
                            raise CpuFault(
                                f"store to unmapped peripheral address {address:#x}"
                            )
                        self.bus_write(address, reg[a] & 0xFF)
                    else:
                        stores += 1
                        offset = address - mbase
                        if offset < 0 or offset >= msize:
                            mem.write_byte(address, reg[a])  # raises BusError
                        data[offset] = reg[a] & 0xFF
                        mem_writes += 1
                        index = offset >> 2
                        if decoded[index] is not None:
                            decoded[index] = None
                            invalidations += 1
                        if sb_cover[index] is not None:
                            self._drop_superblocks_at(index)
                    pc += 4
                elif k == K_JR:
                    pc = reg[a]
                elif k == K_JAL:
                    reg[31] = b
                    pc = a
                elif k == K_JALR:
                    target = reg[b]
                    reg[a] = c
                    pc = target
                elif k == K_MULT:
                    s = reg[a]
                    t = reg[b]
                    if s > 0x7FFFFFFF:
                        s -= 0x100000000
                    if t > 0x7FFFFFFF:
                        t -= 0x100000000
                    product = s * t
                    self.lo = product & M
                    self.hi = (product >> 32) & M
                    pc += 4
                elif k == K_MULTU:
                    product = reg[a] * reg[b]
                    self.lo = product & M
                    self.hi = (product >> 32) & M
                    pc += 4
                elif k == K_DIV:
                    s = reg[a]
                    t = reg[b]
                    if s > 0x7FFFFFFF:
                        s -= 0x100000000
                    if t > 0x7FFFFFFF:
                        t -= 0x100000000
                    if t == 0:
                        self.lo, self.hi = 0, 0
                    else:
                        # Pure-integer truncation toward zero (MIPS div): a
                        # float round trip loses precision above 2**53 and
                        # already misrounds e.g. 0x7FFFFFFF / 1.
                        quotient = abs(s) // abs(t)
                        if (s < 0) != (t < 0):
                            quotient = -quotient
                        self.lo = quotient & M
                        self.hi = (s - quotient * t) & M
                    pc += 4
                elif k == K_DIVU:
                    s = reg[a]
                    t = reg[b]
                    if t == 0:
                        self.lo, self.hi = 0, 0
                    else:
                        self.lo = (s // t) & M
                        self.hi = (s % t) & M
                    pc += 4
                elif k == K_MFHI:
                    reg[a] = self.hi
                    pc += 4
                else:  # _MFLO
                    reg[a] = self.lo
                    pc += 4

                executed += 1
                # Peripheral accesses only execute as a block's first
                # instruction, so a bus callback that halts the CPU (a
                # power/halt control register) can only have fired here —
                # one cheap comparison keeps mid-block halts per-tick exact.
                if executed == 1 and self.halted:
                    break
        finally:
            self.pc = pc
            self.instruction_count += executed
            self.load_count += loads
            self.store_count += stores
            self.block_count += 1
            self.decode_miss_count += misses
            self.decode_invalidation_count += invalidations
            mem.read_count += mem_reads
            mem.write_count += mem_writes
        return executed
