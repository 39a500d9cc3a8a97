"""Superblock compiler for the MIPS ISS: fused straight-line runs as callables.

This is the classic dynamic-translation trick (QEMU's TB chaining, scaled to
a Python host): a *superblock* is a straight-line run of decoded instructions
starting at an entry pc and ending at the first control-flow instruction (or
a size cap).  :func:`install_superblock` specializes that run into a single
exec-compiled Python function — registers hoisted into locals, operands and
branch targets baked in as constants, the dispatch loop gone — and registers
it in the CPU's per-entry-pc cache.  A conditional branch whose taken target
is the entry pc is fused into a ``while True`` loop, so hot firmware loops
execute entire iterations per Python-level jump.

Architectural exactness is the contract (the block-step tests compare
``pc``/registers/``hi``/``lo``/instruction count, memory bytes and the bus
log against per-tick stepping):

* the instruction budget is respected exactly: the caller only enters a
  superblock when the remaining budget covers one full pass, and a fused
  loop re-enters only while another full pass fits — the tail of a block
  always runs through the ordinary dispatch loop;
* ``executed`` is correct at every point an exception can surface or a bus
  callback can observe the CPU, so mid-superblock faults leave exactly the
  per-tick architectural state (the generated ``try/finally`` flushes
  registers, pc and the instruction count on every exit, including raises);
* peripheral-window accesses keep the block contract: they only execute as
  the first instruction of a block (``executed == 0``), otherwise the
  superblock returns with the access unexecuted so the platform driver can
  reschedule it on its exact clock cycle;
* a word access that is neither RAM's aligned fast path nor a bus access
  raises where it stands (the MIPS-I address error or ``BusError``), with
  the dispatch loop's text and flushed state;
* stores invalidate both the decode cache (inline, same as the interpreter)
  and any superblock whose span covers the written word; a store into the
  *running* superblock's own span additionally bails out after the store so
  stale specialized code is never re-entered — self-modifying code stays
  per-tick exact.
"""

from __future__ import annotations

from ...errors import CpuFault
from .cpu import (
    _ADDIU,
    _ADDU,
    _AND,
    _ANDI,
    _BEQ,
    _BGTZ,
    _BLEZ,
    _BNE,
    _DIV,
    _DIVU,
    _J,
    _JAL,
    _JALR,
    _JR,
    _LB,
    _LBU,
    _LUI,
    _LW,
    _MFHI,
    _MFLO,
    _MULT,
    _MULTU,
    _NOP,
    _NOR,
    _OR,
    _ORI,
    _SB,
    _SLL,
    _SLT,
    _SLTI,
    _SLTIU,
    _SLTU,
    _SRA,
    _SRL,
    _SUBU,
    _SW,
    _XOR,
    _XORI,
    address_error,
    decode_word,
)
from .isa import WORD_MASK

#: Longest run of instructions fused into one superblock.
MAX_SUPERBLOCK = 64
#: Runs shorter than this are not worth the call overhead; left to dispatch.
MIN_SUPERBLOCK = 2

_CONTROL = frozenset((_JR, _JALR, _BEQ, _BNE, _BLEZ, _BGTZ, _J, _JAL))

_M = WORD_MASK


class _Emitter:
    """Collects generated source lines with a static instruction count.

    The instruction count ``executed`` is tracked as a *codegen-time*
    constant: straight-line fast paths carry no counter statements at all,
    and the accumulated total is materialized as an ``executed +=``
    statement only on exit and raise paths (where the ``finally`` clause
    makes it architecturally observable).  Inside a fused loop the
    materialized constant covers the current iteration only; completed
    iterations are added as ``it`` times the run length, so the count is
    exact at every loop top.

    ``bounds`` tracks a sound inclusive upper bound for each register local
    (registers always hold values in ``[0, WORD_MASK]``), letting the emitter
    drop ``& 0xFFFFFFFF`` masks that provably cannot change the result.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        #: Instructions completed on the straight line so far (this
        #: iteration, in a fused loop).
        self.pending = 0
        self.used: set[int] = set()
        self.written: set[int] = set()
        self.bounds: dict[int, int] = {}
        #: Fused loops only: the run length; exits emit
        #: ``executed += it * length + partial`` so the loop body itself
        #: carries no counter statements at all.
        self.iter_length = 0

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def materialize(self, indent: int, extra: int = 0) -> None:
        """Emit the batched instruction count plus ``extra``, without resetting.

        Exit paths branch off the straight line, so the static count keeps
        accumulating for the fall-through path after the branch.  Inside a
        fused loop it only covers the current (partial) iteration;
        completed iterations are added back via the ``it`` counter.
        """
        constant = self.pending + extra
        terms = [f"it * {self.iter_length}"] if self.iter_length else []
        if constant:
            terms.append(str(constant))
        if terms:
            self.emit(indent, f"executed += {' + '.join(terms)}")

    def complete(self) -> None:
        """Count one completed instruction into the static batch."""
        self.pending += 1

    def read(self, index: int) -> str:
        """Source text reading register ``index`` ($zero folds to literal 0)."""
        if index == 0:
            return "0"
        self.used.add(index)
        return f"r{index}"

    def bound(self, index: int) -> int:
        """Known inclusive upper bound of register ``index`` at this point."""
        if index == 0:
            return 0
        return self.bounds.get(index, _M)

    def write(self, index: int, bound: int = _M) -> str:
        """Source text naming the local of destination register ``index``."""
        self.used.add(index)
        self.written.add(index)
        self.bounds[index] = min(bound, _M)
        return f"r{index}"


def _scan(cpu, entry_pc):
    """Collect the straight-line decoded run starting at ``entry_pc``.

    Returns ``None`` when no compilable run exists (unaligned/out-of-window
    entry, undecodable first word, or a run shorter than
    :data:`MIN_SUPERBLOCK`).  Words read straight from RAM are decoded into
    the CPU's decode cache.
    """
    mem = cpu.memory
    msize4 = min(mem.size, cpu.peripheral_base) - 4
    decoded = cpu._decoded
    run = []
    pc = entry_pc
    while len(run) < MAX_SUPERBLOCK:
        if pc < 0 or pc > msize4 or pc & 3:
            break
        index = pc >> 2
        entry = decoded[index]
        if entry is None:
            try:
                entry = decode_word(mem.read_word(pc), pc)
            except CpuFault:
                break
            decoded[index] = entry
        run.append((pc, index, entry))
        if entry[0] in _CONTROL:
            break
        pc += 4
    if len(run) < MIN_SUPERBLOCK:
        return None
    return run


def _loop_target(entry) -> "int | None":
    """Taken-branch target of a control-flow entry (None when not a branch)."""
    kind = entry[0]
    if kind in (_BEQ, _BNE):
        return entry[3]
    if kind in (_BLEZ, _BGTZ):
        return entry[2]
    if kind == _J:
        return entry[1]
    return None


def _generate(cpu, entry_pc, run) -> str:
    """Emit the specialized function source for the scanned ``run``.

    A peripheral-window access returns to the ordinary dispatch loop after
    executing at most one instruction, so the hot straight line never
    materializes counters mid-block and only the entry instruction ever
    needs the full peripheral-access protocol (any later instruction
    statically implies ``executed > 0``, which per the block contract
    yields the access).  A word access outside both RAM's fast path and
    the bus flushes the count and pc, then raises.
    """
    msize = cpu.memory.size
    periph = cpu.peripheral_base
    msize4 = min(msize, periph) - 4
    span_lo = run[0][0] >> 2
    span_hi = run[-1][0] >> 2
    length = len(run)
    terminal_kind = run[-1][2][0]
    fused = (
        terminal_kind in (_BEQ, _BNE, _BLEZ, _BGTZ, _J)
        and _loop_target(run[-1][2]) == entry_pc
    )
    out = _Emitter()
    body = 3 if fused else 2  # def(0) / try(1) / [while True(2)] / body
    if fused:
        out.iter_length = length

    def flush_iterations(indent):
        """Flush exactly ``it`` completed fused iterations (terminal exits)."""
        out.emit(indent, f"executed += it * {length}")

    def address_of(base_reg, displacement):
        """Emit the effective-address computation; returns (expr, bound).

        Folds the common ``0(rs)`` form to the bare register local and drops
        the wrap-around mask when the displacement provably cannot overflow.
        """
        if base_reg == 0:
            return str(displacement & _M), displacement & _M
        source = out.read(base_reg)
        source_bound = out.bound(base_reg)
        if displacement == 0:
            return source, source_bound
        if displacement > 0 and source_bound + displacement <= _M:
            out.emit(body, f"address = {source} + {displacement}")
            return "address", source_bound + displacement
        out.emit(body, f"address = ({source} + {displacement}) & {_M}")
        return "address", _M

    def fast_guard(addr, addr_bound):
        """The aligned in-RAM guard of a word access at ``addr``."""
        window = "" if addr_bound <= msize4 else f"{addr} <= {msize4} and "
        return f"{window}not {addr} & 3"

    def word_fault(pc, addr, access, fault):
        """Raise for a word access neither RAM nor the bus takes."""
        out.emit(body, "else:")
        out.materialize(body + 1)
        out.emit(body + 1, f"pc = {pc}")
        out.emit(body + 1, f"if {addr} & 3:")
        out.emit(body + 2, f"raise address_error({access!r}, {addr}, {pc})")
        out.emit(body + 1, f"{fault}  # raises BusError outside RAM")

    def stored(next_pc):
        """Drop decoded and compiled code of the stored word ``index``; a
        store into this superblock's own span returns after the store."""
        out.emit(body + 1, "if decoded[index] is not None:")
        out.emit(body + 2, "decoded[index] = None")
        out.emit(body + 2, "invalidations += 1")
        out.emit(body + 1, "if cover[index] is not None:")
        out.emit(body + 2, "cpu._drop_superblocks_at(index)")
        out.emit(body + 1, f"if {span_lo} <= index <= {span_hi}:")
        out.materialize(body + 2, 1)
        out.emit(body + 2, f"pc = {next_pc}")
        out.emit(body + 2, "return False  # stale self: back to dispatch")

    def peripheral_yield(indent, pc):
        """Yield the block with the peripheral access unexecuted."""
        out.materialize(indent)
        out.emit(indent, f"pc = {pc}")
        out.emit(indent, "return True")

    def peripheral_entry(indent, next_pc, lines):
        """Full peripheral protocol for the entry instruction.

        ``executed``/pc are architecturally exact here without any flush: no
        instruction has completed yet (in a fused loop, ``it`` completed
        iterations are flushed on the yield path) and the header set ``pc``
        to the entry.  After a successful bus call the block bails to the
        dispatch loop so the straight line stays free of counter state.
        """
        if fused:
            out.emit(indent, "if executed or it:")
            out.materialize(indent + 1)
            out.emit(indent + 1, "return True")
        else:
            out.emit(indent, "if executed:")
            out.emit(indent + 1, "return True")
        for line in lines:
            out.emit(indent, line)
        out.emit(indent, "executed += 1")
        out.emit(indent, f"pc = {next_pc}")
        out.emit(indent, "return False  # cold path: back to dispatch")

    for pc, _, entry in run:
        kind, a, b, c = entry
        next_pc = pc + 4
        is_terminal = pc == run[-1][0] and kind in _CONTROL

        if kind == _NOP:
            out.complete()
        elif kind == _SLL:
            shifted = out.bound(b) << c
            if c == 0:
                out.emit(body, f"{out.write(a, out.bound(b))} = {out.read(b)}")
            elif shifted <= _M:
                out.emit(body, f"{out.write(a, shifted)} = {out.read(b)} << {c}")
            else:
                out.emit(body, f"{out.write(a)} = ({out.read(b)} << {c}) & {_M}")
            out.complete()
        elif kind == _SRL:
            out.emit(body, f"{out.write(a, out.bound(b) >> c)} = {out.read(b)} >> {c}")
            out.complete()
        elif kind == _SRA:
            out.emit(body, f"s = {out.read(b)}")
            out.emit(body, "if s > 0x7FFFFFFF:")
            out.emit(body + 1, "s -= 0x100000000")
            out.emit(body, f"{out.write(a)} = (s >> {c}) & {_M}")
            out.complete()
        elif kind == _ADDU:
            summed = out.bound(b) + out.bound(c)
            if summed <= _M:
                out.emit(body, f"{out.write(a, summed)} = {out.read(b)} + {out.read(c)}")
            else:
                out.emit(body, f"{out.write(a)} = ({out.read(b)} + {out.read(c)}) & {_M}")
            out.complete()
        elif kind == _SUBU:
            out.emit(body, f"{out.write(a)} = ({out.read(b)} - {out.read(c)}) & {_M}")
            out.complete()
        elif kind == _AND:
            bound = min(out.bound(b), out.bound(c))
            out.emit(body, f"{out.write(a, bound)} = {out.read(b)} & {out.read(c)}")
            out.complete()
        elif kind == _OR or kind == _XOR:
            bits = max(out.bound(b).bit_length(), out.bound(c).bit_length())
            operator = "|" if kind == _OR else "^"
            out.emit(
                body,
                f"{out.write(a, (1 << bits) - 1)} = "
                f"{out.read(b)} {operator} {out.read(c)}",
            )
            out.complete()
        elif kind == _NOR:
            out.emit(body, f"{out.write(a)} = ~({out.read(b)} | {out.read(c)}) & {_M}")
            out.complete()
        elif kind == _SLT:
            out.emit(body, f"s = {out.read(b)}")
            out.emit(body, f"t = {out.read(c)}")
            out.emit(body, "if s > 0x7FFFFFFF:")
            out.emit(body + 1, "s -= 0x100000000")
            out.emit(body, "if t > 0x7FFFFFFF:")
            out.emit(body + 1, "t -= 0x100000000")
            out.emit(body, f"{out.write(a, 1)} = 1 if s < t else 0")
            out.complete()
        elif kind == _SLTU:
            out.emit(
                body, f"{out.write(a, 1)} = 1 if {out.read(b)} < {out.read(c)} else 0"
            )
            out.complete()
        elif kind == _MULT:
            out.emit(body, f"s = {out.read(a)}")
            out.emit(body, f"t = {out.read(b)}")
            out.emit(body, "if s > 0x7FFFFFFF:")
            out.emit(body + 1, "s -= 0x100000000")
            out.emit(body, "if t > 0x7FFFFFFF:")
            out.emit(body + 1, "t -= 0x100000000")
            out.emit(body, "product = s * t")
            out.emit(body, f"cpu.lo = product & {_M}")
            out.emit(body, f"cpu.hi = (product >> 32) & {_M}")
            out.complete()
        elif kind == _MULTU:
            out.emit(body, f"product = {out.read(a)} * {out.read(b)}")
            out.emit(body, f"cpu.lo = product & {_M}")
            out.emit(body, f"cpu.hi = (product >> 32) & {_M}")
            out.complete()
        elif kind == _DIV:
            out.emit(body, f"s = {out.read(a)}")
            out.emit(body, f"t = {out.read(b)}")
            out.emit(body, "if s > 0x7FFFFFFF:")
            out.emit(body + 1, "s -= 0x100000000")
            out.emit(body, "if t > 0x7FFFFFFF:")
            out.emit(body + 1, "t -= 0x100000000")
            out.emit(body, "if t == 0:")
            out.emit(body + 1, "cpu.lo = 0")
            out.emit(body + 1, "cpu.hi = 0")
            out.emit(body, "else:")
            out.emit(body + 1, "quotient = abs(s) // abs(t)")
            out.emit(body + 1, "if (s < 0) != (t < 0):")
            out.emit(body + 2, "quotient = -quotient")
            out.emit(body + 1, f"cpu.lo = quotient & {_M}")
            out.emit(body + 1, f"cpu.hi = (s - quotient * t) & {_M}")
            out.complete()
        elif kind == _DIVU:
            out.emit(body, f"s = {out.read(a)}")
            out.emit(body, f"t = {out.read(b)}")
            out.emit(body, "if t == 0:")
            out.emit(body + 1, "cpu.lo = 0")
            out.emit(body + 1, "cpu.hi = 0")
            out.emit(body, "else:")
            out.emit(body + 1, f"cpu.lo = (s // t) & {_M}")
            out.emit(body + 1, f"cpu.hi = (s % t) & {_M}")
            out.complete()
        elif kind == _MFHI:
            out.emit(body, f"{out.write(a)} = cpu.hi")
            out.complete()
        elif kind == _MFLO:
            out.emit(body, f"{out.write(a)} = cpu.lo")
            out.complete()
        elif kind == _ADDIU:
            summed = out.bound(b) + c
            if b == 0:
                out.emit(body, f"{out.write(a, c & _M)} = {c & _M}")
            elif 0 <= c and summed <= _M:
                out.emit(body, f"{out.write(a, summed)} = {out.read(b)} + {c}")
            else:
                out.emit(body, f"{out.write(a)} = ({out.read(b)} + {c}) & {_M}")
            out.complete()
        elif kind == _SLTI:
            out.emit(body, f"s = {out.read(b)}")
            out.emit(body, "if s > 0x7FFFFFFF:")
            out.emit(body + 1, "s -= 0x100000000")
            out.emit(body, f"{out.write(a, 1)} = 1 if s < {c} else 0")
            out.complete()
        elif kind == _SLTIU:
            out.emit(body, f"{out.write(a, 1)} = 1 if {out.read(b)} < {c} else 0")
            out.complete()
        elif kind == _ANDI:
            if b == 0:
                out.emit(body, f"{out.write(a, 0)} = 0")
            else:
                bound = min(out.bound(b), c)
                out.emit(body, f"{out.write(a, bound)} = {out.read(b)} & {c}")
            out.complete()
        elif kind == _ORI or kind == _XORI:
            bits = max(out.bound(b).bit_length(), c.bit_length())
            operator = "|" if kind == _ORI else "^"
            out.emit(
                body, f"{out.write(a, (1 << bits) - 1)} = {out.read(b)} {operator} {c}"
            )
            out.complete()
        elif kind == _LUI:
            out.emit(body, f"{out.write(a, b)} = {b}")
            out.complete()
        elif kind == _LW:
            addr, abound = address_of(b, c)
            out.emit(body, f"if {fast_guard(addr, abound)}:")
            out.emit(body + 1, f"{out.write(a)} = words[{addr} >> 2]")
            out.emit(body, f"elif {addr} >= {periph}:")
            if out.pending:
                peripheral_yield(body + 1, pc)
            else:
                peripheral_entry(
                    body + 1,
                    next_pc,
                    [f"{out.write(a)} = cpu.bus_read({addr}) & {_M}"],
                )
            word_fault(pc, addr, "load", f"mem.read_word({addr})")
            out.complete()
        elif kind == _LB or kind == _LBU:
            addr, abound = address_of(b, c)
            out.emit(body, f"if {addr} >= {periph}:")
            if out.pending:
                peripheral_yield(body + 1, pc)
            else:
                lines = [
                    f"value = (cpu.bus_read({addr} & 4294967292)"
                    f" >> (8 * ({addr} & 0x3))) & 0xFF",
                ]
                if kind == _LB:
                    lines.append("if value & 0x80:")
                    lines.append(f"    value = (value - 0x100) & {_M}")
                lines.append(f"{out.write(a)} = value")
                peripheral_entry(body + 1, next_pc, lines)
            out.emit(body, "else:")
            raise_guard = None if abound < msize else f"{addr} >= {msize}"
            if raise_guard:
                out.emit(body + 1, f"if {raise_guard}:")
                out.materialize(body + 2)
                out.emit(body + 2, f"pc = {pc}")
                out.emit(body + 2, f"mem.read_byte({addr})  # raises BusError")
            if kind == _LB:
                out.emit(body + 1, f"value = data[{addr}]")
                out.emit(body + 1, "if value & 0x80:")
                out.emit(body + 2, f"value = (value - 0x100) & {_M}")
                out.emit(body + 1, f"{out.write(a)} = value")
            else:
                out.emit(body + 1, f"{out.write(a, 0xFF)} = data[{addr}]")
            out.complete()
        elif kind == _SW:
            value = out.read(a)
            addr, abound = address_of(b, c)
            out.emit(body, f"if {fast_guard(addr, abound)}:")
            out.emit(body + 1, f"index = {addr} >> 2")
            out.emit(body + 1, f"words[index] = {value}")
            stored(next_pc)
            out.emit(body, f"elif {addr} >= {periph}:")
            if out.pending:
                peripheral_yield(body + 1, pc)
            else:
                peripheral_entry(
                    body + 1, next_pc, [f"cpu.bus_write({addr}, {value})"]
                )
            word_fault(pc, addr, "store", f"mem.write_word({addr}, {value})")
            out.complete()
        elif kind == _SB:
            value = out.read(a)
            vmask = "" if out.bound(a) <= 0xFF else " & 0xFF"
            addr, abound = address_of(b, c)
            out.emit(body, f"if {addr} >= {periph}:")
            if out.pending:
                peripheral_yield(body + 1, pc)
            else:
                peripheral_entry(
                    body + 1, next_pc, [f"cpu.bus_write({addr}, {value}{vmask})"]
                )
            out.emit(body, "else:")
            raise_guard = None if abound < msize else f"{addr} >= {msize}"
            if raise_guard:
                out.emit(body + 1, f"if {raise_guard}:")
                out.materialize(body + 2)
                out.emit(body + 2, f"pc = {pc}")
                out.emit(body + 2, f"mem.write_byte({addr}, {value})  # raises BusError")
            out.emit(body + 1, f"data[{addr}] = {value}{vmask}")
            out.emit(body + 1, f"index = {addr} >> 2")
            stored(next_pc)
            out.complete()
        elif kind in (_BEQ, _BNE):
            assert is_terminal
            operator = "==" if kind == _BEQ else "!="
            if fused:
                out.emit(body, "it += 1")
            else:
                out.materialize(body, 1)
            out.emit(body, f"if {out.read(a)} {operator} {out.read(b)}:")
            if fused:
                out.emit(body + 1, "if it < limit:")
                out.emit(body + 2, "continue")
                flush_iterations(body + 1)
                out.emit(body + 1, f"pc = {entry_pc}")
            else:
                out.emit(body + 1, f"pc = {c}")
            out.emit(body + 1, "return False")
            if fused:
                flush_iterations(body)
            out.emit(body, f"pc = {next_pc}")
            out.emit(body, "return False")
        elif kind in (_BLEZ, _BGTZ):
            assert is_terminal
            if fused:
                out.emit(body, "it += 1")
            else:
                out.materialize(body, 1)
            out.emit(body, f"s = {out.read(a)}")
            if kind == _BLEZ:
                out.emit(body, "if s == 0 or s > 0x7FFFFFFF:")
            else:
                out.emit(body, "if 0 < s <= 0x7FFFFFFF:")
            if fused:
                out.emit(body + 1, "if it < limit:")
                out.emit(body + 2, "continue")
                flush_iterations(body + 1)
                out.emit(body + 1, f"pc = {entry_pc}")
            else:
                out.emit(body + 1, f"pc = {b}")
            out.emit(body + 1, "return False")
            if fused:
                flush_iterations(body)
            out.emit(body, f"pc = {next_pc}")
            out.emit(body, "return False")
        elif kind == _J:
            assert is_terminal
            if fused:
                out.emit(body, "it += 1")
                out.emit(body, "if it < limit:")
                out.emit(body + 1, "continue")
                flush_iterations(body)
                out.emit(body, f"pc = {entry_pc}")
            else:
                out.materialize(body, 1)
                out.emit(body, f"pc = {a}")
            out.emit(body, "return False")
        elif kind == _JAL:
            assert is_terminal
            out.materialize(body, 1)
            out.emit(body, f"{out.write(31, b)} = {b}")
            out.emit(body, f"pc = {a}")
            out.emit(body, "return False")
        elif kind == _JR:
            assert is_terminal
            out.materialize(body, 1)
            out.emit(body, f"pc = {out.read(a)}")
            out.emit(body, "return False")
        elif kind == _JALR:
            assert is_terminal
            out.materialize(body, 1)
            out.emit(body, f"pc = {out.read(b)}")
            out.emit(body, f"{out.write(a, c)} = {c}")
            out.emit(body, "return False")
        else:  # pragma: no cover - decode_word never emits unknown kinds
            raise CpuFault(f"superblock compiler cannot handle kind {kind}")

    if terminal_kind not in _CONTROL:
        # Straight-line run (size cap or undecodable successor): fall back to
        # the dispatch loop at the next pc.
        out.materialize(body)
        out.emit(body, f"pc = {run[-1][0] + 4}")
        out.emit(body, "return False")

    name = f"_sb_{entry_pc:08x}"
    header: list[str] = []
    header.append(
        f"def {name}(cpu, reg, decoded, data, words, cover, mem, budget, "
        "executed, invalidations, out):"
    )
    for index in sorted(out.used):
        header.append(f"    r{index} = reg[{index}]")
    header.append(f"    pc = {entry_pc}")
    if fused:
        header.append("    it = 0")
        header.append(f"    limit = (budget - executed) // {length}")
    header.append("    try:")
    if fused:
        header.append("        while True:")
    footer: list[str] = []
    footer.append("    finally:")
    for index in sorted(out.written):
        footer.append(f"        reg[{index}] = r{index}")
    footer.append("        out[0] = pc")
    footer.append("        out[1] = executed")
    footer.append("        out[2] = invalidations")
    return "\n".join(header + out.lines + footer) + "\n"


def install_superblock(cpu, entry_pc):
    """Compile and register the superblock entered at ``entry_pc``.

    Returns the cache entry stored in ``cpu._superblocks[entry_pc]``: a
    ``(function, length)`` tuple on success, or ``False`` (a negative-cache
    sentinel, invalidated like a real superblock when its first word is
    rewritten) when no compilable run starts there.
    """
    run = _scan(cpu, entry_pc)
    if run is None:
        cpu._superblocks[entry_pc] = False
        if 0 <= entry_pc < cpu.memory.size and not entry_pc & 3:
            _register_span(cpu, entry_pc, entry_pc >> 2, entry_pc >> 2)
        return False
    source = _generate(cpu, entry_pc, run)
    name = f"_sb_{entry_pc:08x}"
    namespace = {"address_error": address_error}
    exec(compile(source, f"<superblock:{entry_pc:#010x}>", "exec"), namespace)
    function = namespace[name]
    function.__source__ = source  # introspection/debugging aid
    entry = (function, len(run))
    cpu._superblocks[entry_pc] = entry
    _register_span(cpu, entry_pc, run[0][0] >> 2, run[-1][0] >> 2)
    cpu.superblock_compile_count += 1
    return entry


def _register_span(cpu, entry_pc, span_lo, span_hi) -> None:
    cpu._sb_spans[entry_pc] = (span_lo, span_hi)
    cover = cpu._sb_cover
    for index in range(span_lo, span_hi + 1):
        cell = cover[index]
        if cell is None:
            cover[index] = {entry_pc}
        else:
            cell.add(entry_pc)
