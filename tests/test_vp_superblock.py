"""Tests for the ISS superblock compiler: exactness, invalidation, counters.

The superblock tier fuses hot basic-block runs into specialized Python
callables.  Like the block executor beneath it, it must be a pure speedup:
bit-identical architectural traces against the one-instruction-at-a-time
interpreter, including across self-modifying code, peripheral-window
accesses and scheduled fault injections that land mid-superblock.
"""

from __future__ import annotations

import pytest

from repro.obs.tracer import TRACER, disable_tracing, enable_tracing
from repro.vp import Memory, MipsCpu, SmartSystemPlatform, assemble
from repro.vp.mips.isa import register_number

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
        cpu.load_count,
        cpu.store_count,
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
        assert accelerated.load_count == reference.load_count
        assert accelerated.store_count == reference.store_count

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
