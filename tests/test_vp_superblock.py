"""Tests for the ISS superblock compiler: exactness, invalidation, counters.

The superblock tier fuses hot basic-block runs into specialized Python
callables.  Like the block executor beneath it, it must be a pure speedup:
bit-identical architectural traces against the one-instruction-at-a-time
interpreter, including across self-modifying code, peripheral-window
accesses and scheduled fault injections that land mid-superblock.
"""

from __future__ import annotations

import itertools
import traceback

import pytest

from repro.errors import BusError, CpuFault, ReproError
from repro.obs.tracer import TRACER, disable_tracing, enable_tracing
from repro.vp import Memory, MipsCpu, SmartSystemPlatform, assemble
from repro.vp.mips import cpu as iss
from repro.vp.mips.isa import register_number
from repro.vp.mips.superblock import MAX_SUPERBLOCK

#: A hot loop with the firmware instruction mix (ALU, shifts, RAM word and
#: byte traffic, a call and a backward branch) — long enough to clear the
#: superblock heat threshold many times over.
HOT_LOOP = """
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
        slt   $s1, $t5, $t6
        xor   $s3, $t6, $t2
        srl   $s5, $t6, 2
        blez  $t2, skip
        jal   leaf
skip:   bne   $t0, $t3, loop
        j     loop
leaf:   ori   $v0, $t2, 0x10
        jr    $ra
"""

#: The loop body runs hot, then the code patches one of its own
#: instructions (``patch``) and re-enters it: a stale superblock would keep
#: adding 1 where the patched code adds 5.  The phases are long enough that
#: the loop clears the burst-entry heat threshold and compiles in phase one.
SELF_PATCHING = """
        li    $s0, 0
        li    $s1, 3000
        li    $s3, 0              # phase: 0 = original, 1 = patched
loop:   addiu $s0, $s0, 1
patch:  addiu $s2, $s2, 1
        bne   $s0, $s1, loop
        bne   $s3, $zero, halt
        li    $s3, 1
        li    $s0, 0
        la    $t0, patch
        li    $t1, 0x26520005     # addiu $s2, $s2, 5
        sw    $t1, 0($t0)
        j     loop
halt:   beq   $zero, $zero, halt
"""

#: Instructions needed to retire both SELF_PATCHING phases plus the patch
#: prologue (the remainder idles in the halt spin, which both engines share).
SELF_PATCHING_TOTAL = 19000
SELF_PATCHING_S2 = 3000 * 1 + 3000 * 5


def architectural_state(cpu: MipsCpu) -> tuple:
    return (
        cpu.pc,
        tuple(cpu.registers[:32]),
        cpu.hi,
        cpu.lo,
        cpu.instruction_count,
        bytes(cpu.memory._data),
    )


def fresh_cpu(source: str, superblocks: bool = True) -> MipsCpu:
    program = assemble(source)
    memory = Memory(size=64 * 1024)
    memory.load_image(program.to_bytes())
    return MipsCpu(memory, superblocks=superblocks)


def run_instructions(cpu: MipsCpu, total: int, chunk: int) -> None:
    done = 0
    while done < total:
        executed = cpu.run_block(min(chunk, total - done))
        if executed < 1:
            break
        done += executed


class TestSuperblockEquivalence:
    @pytest.mark.parametrize("chunk", [3, 17, 64, 256, 1024, 4096])
    def test_chunked_execution_matches_single_stepping(self, chunk):
        total = 6000
        reference = fresh_cpu(HOT_LOOP, superblocks=False)
        for _ in range(total):
            reference.step()
        accelerated = fresh_cpu(HOT_LOOP)
        run_instructions(accelerated, total, chunk)
        assert architectural_state(accelerated) == architectural_state(reference)

    def test_superblocks_engage_on_the_hot_loop(self):
        cpu = fresh_cpu(HOT_LOOP)
        run_instructions(cpu, 6000, 1024)
        stats = cpu.superblock_stats()
        assert stats["superblock_compiles"] > 0
        assert stats["superblock_hits"] > 0

    def test_superblocks_off_never_compiles(self):
        cpu = fresh_cpu(HOT_LOOP, superblocks=False)
        run_instructions(cpu, 6000, 1024)
        stats = cpu.superblock_stats()
        assert stats["superblock_compiles"] == 0
        assert stats["superblock_hits"] == 0

    def test_counters_match_the_interpreter(self):
        reference = fresh_cpu(HOT_LOOP, superblocks=False)
        for _ in range(5000):
            reference.step()
        accelerated = fresh_cpu(HOT_LOOP)
        run_instructions(accelerated, 5000, 512)
        assert accelerated.instruction_count == reference.instruction_count

    def test_reset_clears_counters_but_keeps_compiled_blocks(self):
        # Like the decode cache, compiled superblocks mirror *memory* (which
        # reset does not touch), so they survive; the counters start over.
        cpu = fresh_cpu(HOT_LOOP)
        run_instructions(cpu, 6000, 1024)
        assert cpu.superblock_stats()["superblock_compiles"] > 0
        cpu.reset()
        stats = cpu.superblock_stats()
        assert stats["superblocks"] > 0
        assert stats["superblock_compiles"] == 0
        assert stats["superblock_hits"] == 0
        # Execution after reset is still exact (and reuses the warm blocks).
        reference = fresh_cpu(HOT_LOOP, superblocks=False)
        for _ in range(3000):
            reference.step()
        run_instructions(cpu, 3000, 1024)
        assert architectural_state(cpu) == architectural_state(reference)
        assert cpu.superblock_stats()["superblock_hits"] > 0


#: Every ALU, compare and multiply/divide kind in one fused ``bne`` loop, with
#: negative operands, division by zero, INT_MIN / -1 and the constant forms
#: the emitter folds (``sll`` by 0, ``addiu``/``andi`` from ``$zero``).
ALU_KINDS = """
        li    $s0, 0x80000005
        li    $s1, 0xFFFFFFFD     # -3
        li    $s2, 0x00012345
        li    $k0, 0x80000000     # INT_MIN
        li    $k1, 0xFFFFFFFF     # -1
        li    $s7, 400
loop:   addiu $s0, $s0, 0x1357
        srl   $t0, $s0, 3
        sra   $t1, $s0, 5
        subu  $t2, $s2, $s0
        and   $t3, $s0, $s2
        or    $t4, $s0, $s1
        xor   $t5, $s0, $s1
        nor   $t6, $s0, $s2
        slt   $t7, $s0, $s1
        sltu  $t8, $s0, $s1
        slti  $t9, $s0, -5
        sltiu $a0, $s1, -7
        xori  $a1, $s0, 0xF0F0
        ori   $a2, $t3, 0x0F0F
        sll   $a3, $s0, 0
        sll   $s3, $s0, 7
        addiu $s4, $zero, -9
        andi  $s5, $zero, 0x55
        andi  $s6, $s0, 0xFF
        lui   $v0, 0x1234
        addu  $v1, $s0, $t2
        addu  $at, $s6, $s5       # both bounded: no wrap-around mask
        nop
        mult  $s0, $s1
        mflo  $t0
        mfhi  $t1
        multu $s0, $s1
        mflo  $t2
        mfhi  $t3
        div   $s0, $s1
        mflo  $t4
        mfhi  $t5
        div   $s2, $s1            # operands of opposite sign
        mflo  $a0
        mfhi  $a1
        divu  $s0, $s2
        mflo  $t6
        mfhi  $t7
        div   $s0, $zero
        mfhi  $t8
        divu  $s2, $zero
        mflo  $t9
        div   $k0, $k1
        mflo  $gp
        mfhi  $fp
        addiu $s7, $s7, -1
        bne   $s7, $zero, loop
halt:   beq   $zero, $zero, halt
"""

#: Word and byte traffic to the peripheral window and to RAM, repeated
#: accesses of one ``(base, offset)`` slot (a re-load, a store to a loaded
#: slot and a load of the stored value), and absolute and bounded addresses.
MEMORY_KINDS = """
        lui   $s0, 0x1000         # the peripheral window
        li    $s1, 0x3000         # RAM data
        li    $s7, 300
loop:   lw    $t0, 0($s0)
        lb    $t1, 5($s0)
        lbu   $t2, 6($s0)
        sb    $t1, 9($s0)
        sw    $t2, 12($s0)
        addiu $t3, $t0, 0x1F1
        sb    $t3, 1($s1)
        lb    $t4, 1($s1)
        lbu   $t5, 3($s1)
        lw    $t6, 0($s1)
        lw    $t7, 0($s1)
        lw    $t8, 4($s1)
        sw    $t3, 4($s1)
        lw    $a0, 4($s1)
        sw    $t3, 0x7000($zero)
        lw    $a1, 0x7000($zero)
        andi  $a2, $s7, 0x3F
        sll   $a2, $a2, 2
        lw    $a3, 0x5000($a2)
        addiu $s1, $s1, 16
        addiu $s7, $s7, -1
        bne   $s7, $zero, loop
halt:   beq   $zero, $zero, halt
"""

#: Runs ended by ``jal`` and ``jalr``, and loops fused on ``blez``, ``bgtz``
#: and ``j`` (the last one spins until the budget ends).
CONTROL_KINDS = """
        li    $s7, 200
        la    $s6, leaf2
outer:  addiu $t0, $t0, 1
        sll   $t1, $t0, 2
        jal   leaf1
        addiu $t2, $t2, 3
        jalr  $s6
        addiu $s7, $s7, -1
        bne   $s7, $zero, outer
        li    $s5, 0xFFFFFED4     # -300: the blez loop counts up to 1
down:   addiu $t3, $t3, 5
        xori  $t4, $t3, 0x77
        addiu $s5, $s5, 1
        blez  $s5, down
        li    $s4, 300
up:     addiu $t5, $t5, 9
        sra   $t6, $t5, 1
        addiu $s4, $s4, -1
        bgtz  $s4, up
spin:   addiu $t7, $t7, 1
        sltu  $t8, $t7, $t3
        j     spin
leaf1:  ori   $v0, $t0, 0x10
        addu  $v1, $v0, $t1
        jr    $ra
leaf2:  subu  $a0, $t2, $t0
        nor   $a1, $a0, $t1
        jr    $ra
"""

_CAPPED_OPS = ("addu", "xor", "subu", "or", "sltu", "and", "nor", "slt")

#: A 70-instruction straight line: its superblock ends at the 64-instruction
#: cap and chains into one holding the rest of the loop.
CAPPED_RUN = (
    "        li    $s7, 80\n"
    + "loop:   addiu $t0, $t0, 0x2461\n"
    + "".join(
        f"        {_CAPPED_OPS[i % 8]} $t{(i + 1) % 8}, $t{i % 8}, $t{(i + 3) % 8}\n"
        if i % 3
        else f"        sll   $t{(i + 1) % 8}, $t{i % 8}, {i % 31}\n"
        for i in range(69)
    )
    + "        addiu $s7, $s7, -1\n"
    + "        bne   $s7, $zero, loop\n"
    + "halt:   beq   $zero, $zero, halt\n"
)

#: A fused loop walking up to the end of RAM: its access raises ``BusError``
#: past the last word.
OUT_OF_RAM = """
        li    $s0, 0xF800
loop:   {op:5} $s1, 0($s0)
        addiu $s1, $s1, 1
        addiu $s0, $s0, 4
        j     loop
"""

#: A fused loop whose word access moves two bytes into its word after 600
#: aligned iterations: it raises the MIPS-I address error there (in the
#: superblock tier, inside the compiled loop).
MISALIGNED_ACCESS = """
        li    $s0, 0x4000
loop:   sltiu $t0, $s4, 600
        xori  $t0, $t0, 1
        sll   $t0, $t0, 1         # 0, then 2
        addu  $s3, $s0, $t0
        {op:5} $s1, 0($s3)
        addiu $s1, $s1, 1
        addiu $s0, $s0, 4
        addiu $s4, $s4, 1
        j     loop
"""

#: Chained superblocks whose ``jr`` jumps two bytes into ``back``'s word
#: once the count runs out: the fetch there raises the address error.
MISALIGNED_FETCH = """
        la    $s6, back
        li    $s7, 800
loop:   addiu $s7, $s7, -1
        sltiu $t0, $s7, 1
        sll   $t0, $t0, 1         # 0, then 2
        addu  $t1, $s6, $t0
        jr    $t1
back:   addiu $t2, $t2, 3
        j     loop
"""

#: Burst sizes of each tier; 4096 is the platform's default cap.  The
#: superblock schedule mixes short bursts, so that every pc of a loop becomes
#: a hot burst entry, with long ones that run the compiled (and fused) code.
#: A burst that enters uncompiled code heats one pc only, so three rounds of
#: short bursts come before each 4096-instruction one.
TIER_CHUNKS = {
    "tick": (1,),
    "block": (4096, 256, 7, 64),
    "superblock": 3 * (3, 5, 7, 11, 13, 2, 17, 64, 256) + (4096,),
}

#: program -> (source, instructions to run, kinds that must be compiled).
KIND_PROGRAMS = {
    "alu": (
        ALU_KINDS,
        20_000,
        "nop addiu srl sra subu and or xor nor slt sltu slti sltiu xori ori "
        "sll andi lui addu mult mflo mfhi multu div divu bne",
    ),
    "memory": (
        MEMORY_KINDS,
        8_000,
        "lw lb lbu sb sw addiu andi sll bne",
    ),
    "control": (
        CONTROL_KINDS,
        6_000,
        "addiu sll jal jalr jr bne xori blez sra bgtz sltu j ori addu subu nor",
    ),
    "capped": (
        CAPPED_RUN,
        6_000,
        "addiu addu xor subu or sltu and nor slt sll bne",
    ),
}


def _kind(mnemonic: str) -> int:
    return getattr(iss, "_" + mnemonic.upper())


#: Instructions between two digests of a run: a result overwritten later in
#: its loop is still compared, at whichever digest falls before that.
DIGEST_EVERY = 257
#: A digest interval no run reaches.  A digest cuts the burst it falls in,
#: so only at this interval does every burst of a schedule run whole.
WHOLE_BURSTS = 1 << 20


def run_through_tier(source: str, tier: str, total: int, every: int = DIGEST_EVERY):
    """Run ``source`` for ``total`` instructions in one ISS tier.

    Returns the CPU, its architectural digests (pc, registers, HI/LO,
    instruction count, RAM bytes) every ``every`` instructions and at the
    end, the bus log and the error (a ``BusError`` or a ``CpuFault``) that
    stopped the run, if any.
    Each bus access is logged with the CPU's pc and instruction count at
    that moment: a block only ever starts with a peripheral access, so
    both name the accessing instruction exactly.
    """
    memory = Memory(size=64 * 1024)
    memory.load_image(assemble(source).to_bytes())
    log: list[tuple] = []

    def bus_read(address: int) -> int:
        value = ((address + len(log)) * 0x9E3779B1) & 0xFFFFFFFF
        log.append(("r", address, value, cpu.pc, cpu.instruction_count))
        return value

    def bus_write(address: int, value: int) -> None:
        log.append(("w", address, value, cpu.pc, cpu.instruction_count))

    def digest() -> tuple:
        return (
            cpu.pc,
            tuple(cpu.registers[:32]),
            cpu.hi,
            cpu.lo,
            cpu.instruction_count,
            bytes(memory._data),
        )

    cpu = MipsCpu(memory, bus_read, bus_write, superblocks=tier == "superblock")
    digests = []
    error = None
    done = 0
    try:
        for chunk in itertools.cycle(TIER_CHUNKS[tier]):
            if done >= total:
                break
            done += cpu.run_block(min(chunk, total - done, every - done % every))
            if done % every == 0:
                digests.append(digest())
    except ReproError as exc:
        error = exc
    digests.append(digest())
    return cpu, digests, log, error


def compiled_spans(cpu: MipsCpu) -> list[tuple[int, int, int]]:
    """``(entry pc, first word, last word)`` of every compiled superblock."""
    return [
        (entry_pc, *cpu._sb_spans[entry_pc])
        for entry_pc, entry in cpu._superblocks.items()
        if entry is not False
    ]


def compiled_kinds(cpu: MipsCpu) -> set[int]:
    return {
        cpu._decoded[index][0]
        for _, first, last in compiled_spans(cpu)
        for index in range(first, last + 1)
    }


def assert_tiers_agree(name: str, every: int) -> MipsCpu:
    """Run a :data:`KIND_PROGRAMS` program through every tier with digests
    every ``every`` instructions; all must match the per-tick run.  Returns
    the superblock tier's CPU."""
    source, total, _ = KIND_PROGRAMS[name]
    runs = {tier: run_through_tier(source, tier, total, every) for tier in TIER_CHUNKS}
    reference = runs["tick"]
    assert reference[3] is None
    assert reference[1][-1][4] == total
    if name == "memory":
        assert len(reference[2]) == 5 * 300
    for tier in ("block", "superblock"):
        assert runs[tier][1] == reference[1], tier
        assert runs[tier][2] == reference[2], tier
        assert runs[tier][3] is None, tier
    return runs["superblock"][0]


class TestEveryKindThroughEveryTier:
    """Each decoded kind runs per tick, block-stepped with superblocks off,
    and compiled after warm-up; all three leave the same state and bus log."""

    @pytest.mark.parametrize("name", sorted(KIND_PROGRAMS))
    def test_tiers_agree(self, name):
        cpu = assert_tiers_agree(name, DIGEST_EVERY)
        mnemonics = KIND_PROGRAMS[name][2]
        missing = {m for m in mnemonics.split() if _kind(m) not in compiled_kinds(cpu)}
        assert not missing, f"never compiled: {sorted(missing)}"

    @pytest.mark.parametrize("name", sorted(KIND_PROGRAMS))
    def test_tiers_agree_in_whole_bursts(self, name):
        # No digest cuts a burst, so each 4096-instruction one runs whole.
        # It can finish a loop before the loop is hot: no kind must compile.
        assert_tiers_agree(name, WHOLE_BURSTS)

    def test_fused_loops_and_the_size_cap_are_compiled(self):
        fused = set()
        for name in ("alu", "control"):
            source, total, _ = KIND_PROGRAMS[name]
            cpu = run_through_tier(source, "superblock", total)[0]
            for entry_pc, _, last in compiled_spans(cpu):
                function = cpu._superblocks[entry_pc][0]
                if "while True:" in function.__source__:
                    fused.add(cpu._decoded[last][0])
        assert {_kind(m) for m in ("bne", "blez", "bgtz", "j")} <= fused
        source, total, _ = KIND_PROGRAMS["capped"]
        cpu = run_through_tier(source, "superblock", total)[0]
        lengths = [entry[1] for entry in cpu._superblocks.values() if entry]
        assert MAX_SUPERBLOCK in lengths

    @pytest.mark.parametrize("op", ["lw", "sw", "lb", "lbu", "sb"])
    def test_out_of_ram_access_raises_with_the_same_state(self, op):
        runs = tiers_raising_alike(OUT_OF_RAM.format(op=op))
        reference = runs["tick"]
        assert isinstance(reference[3], BusError)
        assert reference[1][-1][0] == 4 * 2  # the faulting access, not past it
        cpu, _, _, error = runs["superblock"]
        assert _kind(op) in compiled_kinds(cpu)
        assert raised_in_a_superblock(error)

    @pytest.mark.parametrize("op", ["lw", "sw"])
    def test_misaligned_ram_access_raises_an_address_error(self, op):
        runs = tiers_raising_alike(MISALIGNED_ACCESS.format(op=op))
        reference = runs["tick"]
        assert isinstance(reference[3], CpuFault)
        code = "AdES" if op == "sw" else "AdEL"
        assert str(reference[3]) == (
            f"address error ({code}): word {'store' if op == 'sw' else 'load'} "
            "at misaligned address 0x00004962, pc 0x00000018"
        )
        assert reference[1][-1][0] == 0x18  # the faulting access, not past it
        assert reference[1][-1][4] == 2 + 600 * 9 + 4
        cpu, _, _, error = runs["superblock"]
        assert _kind(op) in compiled_kinds(cpu)
        assert raised_in_a_superblock(error)

    def test_misaligned_fetch_raises_an_address_error(self):
        runs = tiers_raising_alike(MISALIGNED_FETCH)
        reference = runs["tick"]
        back = assemble(MISALIGNED_FETCH).symbols["back"]
        assert isinstance(reference[3], CpuFault)
        assert str(reference[3]) == (
            f"address error (AdEL): word fetch at misaligned address "
            f"{back + 2:#010x}, pc {back + 2:#010x}"
        )
        assert reference[1][-1][0] == back + 2
        assert reference[1][-1][4] == 4 + 800 * 7 - 2
        # The jump ran compiled: the superblock loop looked its misaligned
        # target up (one heat) before the dispatch loop raised at the fetch.
        cpu = runs["superblock"][0]
        assert _kind("jr") in compiled_kinds(cpu)
        assert cpu._sb_heat.get(back + 2) == 1


def tiers_raising_alike(source: str) -> dict:
    """Run ``source`` through every tier with one digest, at the raise
    (bursts cut at digests would keep the faulting access out of compiled
    code); the block and superblock tiers must leave the per-tick run's
    states and error text.  Returns the runs by tier."""
    runs = {
        tier: run_through_tier(source, tier, 10_000, every=10_000) for tier in TIER_CHUNKS
    }
    reference = runs["tick"]
    for tier in ("block", "superblock"):
        assert runs[tier][1] == reference[1], tier
        assert str(runs[tier][3]) == str(reference[3]), tier
    return runs


def raised_in_a_superblock(error: BaseException) -> bool:
    frames = [frame.f_code.co_filename for frame, _ in traceback.walk_tb(error.__traceback__)]
    return any(name.startswith("<superblock:") for name in frames)


@pytest.fixture(scope="module")
def self_patching_reference():
    reference = fresh_cpu(SELF_PATCHING, superblocks=False)
    for _ in range(SELF_PATCHING_TOTAL):
        reference.step()
    return architectural_state(reference), reference.read_register(
        register_number("$s2")
    )


class TestSelfModifyingCode:
    def test_patched_loop_invalidates_the_superblock(self, self_patching_reference):
        reference_state, s2 = self_patching_reference
        accelerated = fresh_cpu(SELF_PATCHING)
        # 256-cycle bursts: enough burst entries inside phase one for the
        # three-instruction loop to clear the heat threshold and compile
        # *before* the patch lands on it.
        run_instructions(accelerated, SELF_PATCHING_TOTAL, 256)
        assert architectural_state(accelerated) == reference_state
        stats = accelerated.superblock_stats()
        assert stats["superblock_compiles"] > 0
        assert stats["superblock_invalidations"] > 0
        # The patched second phase actually executed: 3000 * 1 + 3000 * 5.
        assert s2 == SELF_PATCHING_S2

    @pytest.mark.parametrize("chunk", [7, 64, 256])
    def test_patch_is_chunk_size_invariant(self, chunk, self_patching_reference):
        reference_state, _ = self_patching_reference
        accelerated = fresh_cpu(SELF_PATCHING)
        run_instructions(accelerated, SELF_PATCHING_TOTAL, chunk)
        assert architectural_state(accelerated) == reference_state


def _monitor_platform(**kwargs) -> SmartSystemPlatform:
    from repro.circuits import build_rc_filter
    from repro.core import abstract_circuit
    from repro.sim import SquareWave

    model = abstract_circuit(build_rc_filter(1), "out", 50e-9)
    platform = SmartSystemPlatform(**kwargs)
    platform.attach_analog_python(model, {"vin": SquareWave(period=40e-6)})
    return platform


class TestPlatformEquivalence:
    def test_fingerprints_identical_across_execution_tiers(self):
        fingerprints = {}
        for label, kwargs in {
            "tick": {"cpu_block_cycles": 1, "cpu_superblocks": False},
            "block": {"cpu_block_cycles": 256, "cpu_superblocks": False},
            "superblock": {"cpu_block_cycles": 256, "cpu_superblocks": True},
            "superblock-long": {"cpu_block_cycles": 1024, "cpu_superblocks": True},
        }.items():
            platform = _monitor_platform(**kwargs)
            result = platform.run(100e-6)
            fingerprints[label] = result.fingerprint()
        assert len(set(fingerprints.values())) == 1, fingerprints

    def test_mid_superblock_fault_injection_is_tick_exact(self):
        # A RAM mutation scheduled at an off-grid instant must land on the
        # same instruction boundary whether the CPU runs per-tick, block
        # stepped, or through compiled superblocks.
        fingerprints = {}
        for label, kwargs in {
            "tick": {"cpu_block_cycles": 1, "cpu_superblocks": False},
            "block": {"cpu_block_cycles": 4096, "cpu_superblocks": False},
            "superblock": {"cpu_block_cycles": 4096, "cpu_superblocks": True},
        }.items():
            platform = _monitor_platform(**kwargs)
            platform.schedule_injection(
                13.37e-6,
                lambda p=platform: p.memory.poke(4, (0).to_bytes(4, "little")),
            )
            result = platform.run(50e-6)
            fingerprints[label] = result.fingerprint()
        assert len(set(fingerprints.values())) == 1, fingerprints


class TestTelemetry:
    def setup_method(self):
        TRACER.reset()

    def teardown_method(self):
        TRACER.reset()

    def test_traced_platform_run_surfaces_superblock_counters(self):
        from repro.vp.firmware import FIRMWARE_STYLE_LOOP

        enable_tracing()
        try:
            mark = TRACER.mark()
            platform = _monitor_platform(
                firmware=FIRMWARE_STYLE_LOOP,
                analog_timestep=10e-6,
                cpu_block_cycles=1024,
            )
            platform.run(5e-3)
            payload = TRACER.collect(mark)
        finally:
            disable_tracing()
        counters = payload["counters"]
        assert counters.get("iss.superblock.compiles", 0) > 0
        assert counters.get("iss.superblock.hits", 0) > 0
        # No self-modifying code in this firmware (zero-delta counters may
        # be elided from the collected payload entirely).
        assert counters.get("iss.superblock.invalidations", 0.0) == 0.0
        # Event tuples: (phase, name, category, start, duration, args).
        spans = [
            event for event in payload["events"] if event[1] == "platform.run"
        ]
        assert spans, payload["events"]
        args = spans[-1][5]
        assert args["superblock_compiles"] > 0
        assert args["superblock_hits"] > 0
