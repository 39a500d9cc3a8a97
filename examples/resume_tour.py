#!/usr/bin/env python3
"""A 4-stop tour of durable campaigns: store → crash → resume → audit.

Stop 1 — a **RunStore** attached to a fault campaign commits every
completed run to disk the moment it finishes: one atomic JSON file per
run, filed under a SHA-256 digest of the run's *full inputs* (circuit
factory, parameters, integration style, firmware source, stimulus, seed,
fault spec).
Stop 2 — the campaign is **interrupted mid-flight** (``interrupt_after``
simulates the kill signal the real world provides for free); the store
keeps exactly the committed prefix.
Stop 3 — re-running the same spec with ``resume=True`` **loads** the
committed runs and executes only the remainder — and the verdicts,
coverage and reports come out bit-identical to a never-interrupted
campaign.
Stop 4 — the store is **auditable**: every record carries the pre-digest
input payload it was computed from.

Run with:  python examples/resume_tour.py
"""

import json
import tempfile

from repro.circuits import rc_benchmark
from repro.errors import CampaignInterrupted
from repro.fault import (
    AdcStuckBitFault,
    FaultCampaignRunner,
    FaultCampaignSpec,
    MemoryBitFlipFault,
    ParameterDriftFault,
    UartCorruptionFault,
)
from repro.sim import SquareWave
from repro.store import RunStore
from repro.sweep import PlatformScenarioSpec
from repro.vp import threshold_monitor_source

DURATION = 1.2e-4


def build_campaign() -> FaultCampaignSpec:
    return FaultCampaignSpec(
        faults=[
            ParameterDriftFault("r1", 2.0),
            AdcStuckBitFault(bit=9, stuck_at=1),
            MemoryBitFlipFault(bit=0),
            UartCorruptionFault(0x20),
        ],
        activation_times=(60e-6,),
        scenarios=PlatformScenarioSpec(
            firmwares={"threshold": threshold_monitor_source(500)}
        ),
    )


def runner(bench, **kwargs) -> FaultCampaignRunner:
    return FaultCampaignRunner(
        bench.build,
        bench.output,
        {name: SquareWave(period=4e-5) for name in bench.stimuli},
        **kwargs,
    )


def main() -> None:
    bench = rc_benchmark(1)
    spec = build_campaign()
    store_dir = tempfile.mkdtemp(prefix="repro-campaign-")

    # Stop 1+2: a durable campaign, killed after two committed runs.
    print(f"== campaign of {len(spec)} runs, store at {store_dir}")
    try:
        runner(bench, store=store_dir, interrupt_after=2).run(spec, DURATION)
        raise AssertionError("the interrupt budget should have fired")
    except CampaignInterrupted as interrupt:
        print(f"boom: {interrupt}")
    store = RunStore(store_dir)
    print(f"store survived with {len(store)}/{len(spec)} runs committed\n")

    # Stop 3: resume — only the missing runs execute.
    resumed = runner(bench, store=store_dir, resume=True).run(spec, DURATION)
    loaded = resumed.n_scenarios - resumed.executed_count
    print(f"== resumed: {resumed.executed_count} executed, {loaded} loaded")
    print(f"fault coverage: {resumed.coverage_text()} non-silent")

    # The proof: a fresh, never-interrupted campaign agrees bit for bit.
    pristine = runner(bench).run(spec, DURATION)
    assert resumed.fingerprints() == pristine.fingerprints()
    assert resumed.to_csv() == pristine.to_csv()
    print("resumed campaign is bit-identical to an uninterrupted one\n")

    # Stop 4: audit one record — the inputs that produced it ride along.
    key = store.keys()[0]
    payload = json.loads(store.path_for(key).read_text())
    print(f"== record {key[:16]}… was computed from:")
    print(json.dumps(payload["inputs"], indent=2, sort_keys=True)[:400], "…")


if __name__ == "__main__":
    main()
