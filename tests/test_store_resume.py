"""Resume correctness of the platform-scale engines (the PR's acceptance bar).

A campaign interrupted mid-chunk (simulated with ``interrupt_after``, which
raises :class:`~repro.errors.CampaignInterrupted` after N committed
executions per worker) and resumed from the same store must reproduce the
uninterrupted run's outcome fingerprints and reports bit-identically while
re-executing *only* the unfinished scenarios — asserted through the
per-scenario execution counters, for both
:class:`~repro.sweep.platform.PlatformSweepRunner` and
:class:`~repro.fault.campaign.FaultCampaignRunner`, serial and
multiprocess.
"""

from __future__ import annotations

import concurrent.futures.process
import json
import re
import shutil

import numpy as np
import pytest

from repro.circuits import rc_benchmark
from repro.errors import CampaignInterrupted, PlatformError, StoreError
from repro.fault import (
    AdcStuckBitFault,
    FaultCampaignRunner,
    FaultCampaignSpec,
    InstructionCorruptionFault,
    MemoryBitFlipFault,
    ParameterDriftFault,
    UartCorruptionFault,
)
from repro.sim import SquareWave
from repro.store import RunStore
from repro.sweep import (
    GridSpec,
    PlatformScenarioSpec,
    PlatformSweepRunner,
    SweepError,
    SweepRunner,
    executor,
)
from repro.vp import threshold_monitor_source

TIMESTEP = 50e-9
DURATION = 1e-4
CAMPAIGN_DURATION = 1.2e-4
ACTIVATION = 6e-5
WAVE = {"vin": SquareWave(period=4e-5)}
FIRMWARES = {"threshold": threshold_monitor_source(500)}
BENCH = rc_benchmark(1)


def platform_runner(**kwargs) -> PlatformSweepRunner:
    return PlatformSweepRunner(
        BENCH.build, "out", WAVE, timestep=TIMESTEP, **kwargs
    )


def platform_spec(styles=("python", "de")) -> PlatformScenarioSpec:
    return PlatformScenarioSpec(
        parameters=GridSpec(axes={"resistance": [4e3, 5e3]}),
        styles=styles,
        firmwares=FIRMWARES,
    )


def campaign_runner(**kwargs) -> FaultCampaignRunner:
    return FaultCampaignRunner(
        BENCH.build, "out", WAVE, timestep=TIMESTEP, **kwargs
    )


def campaign_spec() -> FaultCampaignSpec:
    return FaultCampaignSpec(
        faults=[
            ParameterDriftFault("r1", 2.0),
            AdcStuckBitFault(bit=9, stuck_at=1),
            MemoryBitFlipFault(bit=0),
            UartCorruptionFault(0x20),
        ],
        activation_times=(ACTIVATION,),
        scenarios=PlatformScenarioSpec(firmwares=FIRMWARES),
        seed=3,
    )


def deterministic_markdown(report: str) -> str:
    """A campaign report minus its wall-clock provenance lines.

    Wall-clock timings (and the worker count, which is execution topology,
    not outcome) can never be bit-stable between two executions; everything
    else — verdicts, coverage, collapse, per-run rows — must be.
    """
    return "\n".join(
        line
        for line in report.splitlines()
        if not line.startswith(("- wall:", "- simulate:", "- workers:"))
    )


class TestPlatformSweepResume:
    def test_interrupt_commits_a_prefix_then_resume_completes(self, tmp_path):
        spec = platform_spec()
        baseline = platform_runner().run(spec, DURATION)

        with pytest.raises(CampaignInterrupted):
            platform_runner(store=tmp_path, interrupt_after=1).run(spec, DURATION)
        committed = len(RunStore(tmp_path))
        assert 1 <= committed < len(spec)

        resumed = platform_runner(store=tmp_path, resume=True).run(spec, DURATION)
        assert resumed.executed_count == len(spec) - committed
        assert resumed.fingerprints() == baseline.fingerprints()
        for ours, theirs in zip(resumed.results, baseline.results):
            assert ours.analog_trace == theirs.analog_trace
        assert len(RunStore(tmp_path)) == len(spec)

    def test_multiprocess_interrupt_and_resume(self, tmp_path):
        spec = platform_spec()
        baseline = platform_runner().run(spec, DURATION)

        with pytest.raises(CampaignInterrupted):
            platform_runner(store=tmp_path, interrupt_after=1, workers=2).run(
                spec, DURATION
            )
        committed = len(RunStore(tmp_path))
        assert committed >= 1

        resumed = platform_runner(store=tmp_path, resume=True, workers=2).run(
            spec, DURATION
        )
        assert resumed.executed_count == len(spec) - committed
        assert resumed.fingerprints() == baseline.fingerprints()

    def test_fully_stored_sweep_executes_nothing(self, tmp_path):
        spec = platform_spec(styles=("python",))
        first = platform_runner(store=tmp_path).run(spec, DURATION)
        assert first.executed.all()
        again = platform_runner(store=tmp_path, resume=True).run(spec, DURATION)
        assert again.executed_count == 0
        assert again.fingerprints() == first.fingerprints()

    def test_records_are_shared_across_block_sizes(self, tmp_path):
        # Runs are bit-identical at any block size, crashed ones included,
        # so cpu_block_cycles is deliberately not part of the content key: a
        # store filled at the default cap serves a resume at 1.  Both code
        # words follow an ADC read in its burst, so their runs crash inside
        # a burst.
        spec = FaultCampaignSpec(
            faults=[InstructionCorruptionFault(0x38), InstructionCorruptionFault(0x40)],
            activation_times=(ACTIVATION,),
            scenarios=PlatformScenarioSpec(firmwares=FIRMWARES),
        )
        filled = campaign_runner(store=tmp_path).run(spec, CAMPAIGN_DURATION)
        payloads = [run.to_payload() for run in filled.results]
        assert sum(payload["crashed"] is not None for payload in payloads) == 2
        per_tick = campaign_runner(
            store=tmp_path, resume=True, cpu_block_cycles=1
        ).run(spec, CAMPAIGN_DURATION)
        assert per_tick.executed_count == 0
        assert [run.to_payload() for run in per_tick.results] == payloads
        fresh = campaign_runner(cpu_block_cycles=1).run(spec, CAMPAIGN_DURATION)
        assert [run.to_payload() for run in fresh.results] == payloads

    def test_store_key_separates_styles_firmware_and_duration(self, tmp_path):
        spec = platform_spec(styles=("python",))
        platform_runner(store=tmp_path).run(spec, DURATION)
        stored = len(RunStore(tmp_path))
        other_style = platform_runner(store=tmp_path, resume=True).run(
            platform_spec(styles=("de",)), DURATION
        )
        assert other_style.executed_count == len(other_style.scenarios)
        longer = platform_runner(store=tmp_path, resume=True).run(
            spec, 2 * DURATION
        )
        assert longer.executed_count == len(longer.scenarios)
        assert len(RunStore(tmp_path)) == stored + other_style.executed_count + (
            longer.executed_count
        )

    def test_crashed_records_do_not_serve_a_no_capture_resume(self, tmp_path):
        # A crashed outcome is only meaningful under capture_errors=True;
        # resuming without error capture must re-execute the scenario so
        # the real error surfaces, not smuggle a crashed result through.
        import json

        spec = platform_spec(styles=("python",))
        platform_runner(store=tmp_path).run(spec, DURATION)
        store = RunStore(tmp_path)
        victim = store.path_for(store.keys()[0])
        payload = json.loads(victim.read_text())
        payload["record"]["result"]["crashed"] = "CpuFault: staged"
        victim.write_text(json.dumps(payload), encoding="utf-8")
        resumed = platform_runner(store=tmp_path, resume=True).run(spec, DURATION)
        assert resumed.executed_count == 1
        assert all(result.crashed is None for result in resumed.results)

    def test_resume_and_interrupt_need_a_store(self):
        with pytest.raises(SweepError, match="resume"):
            platform_runner(resume=True)
        with pytest.raises(SweepError, match="interrupt_after"):
            platform_runner(interrupt_after=1)


class TestFaultCampaignResume:
    def test_interrupted_multiprocess_campaign_resumes_bit_identically(
        self, tmp_path
    ):
        spec = campaign_spec()
        baseline = campaign_runner(workers=2).run(spec, CAMPAIGN_DURATION)

        with pytest.raises(CampaignInterrupted):
            campaign_runner(store=tmp_path, interrupt_after=1, workers=2).run(
                spec, CAMPAIGN_DURATION
            )
        committed = len(RunStore(tmp_path))
        assert 1 <= committed < len(spec)

        resumed = campaign_runner(store=tmp_path, resume=True, workers=2).run(
            spec, CAMPAIGN_DURATION
        )
        # Only the unfinished runs were re-executed...
        assert resumed.executed_count == len(spec) - committed
        # ...and the outcome is indistinguishable from the uninterrupted run:
        assert resumed.fingerprints() == baseline.fingerprints()
        assert resumed.to_csv() == baseline.to_csv()
        assert deterministic_markdown(resumed.to_markdown()) == (
            deterministic_markdown(baseline.to_markdown())
        )

    def test_serial_interrupt_and_resume(self, tmp_path):
        spec = campaign_spec()
        baseline = campaign_runner().run(spec, CAMPAIGN_DURATION)
        with pytest.raises(CampaignInterrupted):
            campaign_runner(store=tmp_path, interrupt_after=2).run(
                spec, CAMPAIGN_DURATION
            )
        committed = len(RunStore(tmp_path))
        assert committed == 2
        resumed = campaign_runner(store=tmp_path, resume=True).run(
            spec, CAMPAIGN_DURATION
        )
        assert resumed.executed_count == len(spec) - committed
        assert resumed.fingerprints() == baseline.fingerprints()
        assert resumed.to_csv() == baseline.to_csv()

    def test_loaded_golden_runs_still_anchor_the_verdicts(self, tmp_path):
        # Golden runs expand first, so an early interrupt commits exactly
        # them; the resumed campaign classifies faulted runs against golden
        # results that came from the store.
        spec = campaign_spec()
        golden_count = len(spec.platform_scenarios())
        with pytest.raises(CampaignInterrupted):
            campaign_runner(store=tmp_path, interrupt_after=golden_count).run(
                spec, CAMPAIGN_DURATION
            )
        assert len(RunStore(tmp_path)) == golden_count
        resumed = campaign_runner(store=tmp_path, resume=True).run(
            spec, CAMPAIGN_DURATION
        )
        assert not resumed.executed[:golden_count].any()
        assert resumed.executed[golden_count:].all()
        assert resumed.verdicts()  # classification works on loaded goldens

    def test_fault_parameterization_is_part_of_the_key(self, tmp_path):
        base = FaultCampaignSpec(
            faults=[ParameterDriftFault("r1", 2.0)],
            activation_times=(ACTIVATION,),
            scenarios=PlatformScenarioSpec(firmwares=FIRMWARES),
        )
        campaign_runner(store=tmp_path).run(base, CAMPAIGN_DURATION)
        # Same fault *name*, different drift: must not hit the old records.
        drifted = FaultCampaignSpec(
            faults=[ParameterDriftFault("r1", 3.0)],
            activation_times=(ACTIVATION,),
            scenarios=PlatformScenarioSpec(firmwares=FIRMWARES),
        )
        resumed = campaign_runner(store=tmp_path, resume=True).run(
            drifted, CAMPAIGN_DURATION
        )
        # The golden run is shared; the faulted run re-executes.
        assert resumed.executed_count == 1
        assert resumed.executed[-1]

    def test_activation_time_is_part_of_the_key(self, tmp_path):
        def spec_at(when: float) -> FaultCampaignSpec:
            return FaultCampaignSpec(
                faults=[AdcStuckBitFault(bit=9, stuck_at=1)],
                activation_times=(when,),
                scenarios=PlatformScenarioSpec(firmwares=FIRMWARES),
            )

        campaign_runner(store=tmp_path).run(spec_at(ACTIVATION), CAMPAIGN_DURATION)
        resumed = campaign_runner(store=tmp_path, resume=True).run(
            spec_at(ACTIVATION / 2), CAMPAIGN_DURATION
        )
        assert resumed.executed_count == 1


def verdict_rows(result) -> list[tuple]:
    return [(entry.verdict, entry.nrmse, entry.detail) for entry in result.verdicts()]


class TestCoordinatorResolution:
    """The coordinating process resolves the store; workers get pending runs only."""

    @pytest.fixture(scope="class")
    def spec(self):
        """12 runs: golden, two analog faults, three digital faults at three times."""
        return FaultCampaignSpec(
            faults=[
                ParameterDriftFault("r1", 2.0),
                ParameterDriftFault("c1", 0.5),
                AdcStuckBitFault(bit=9, stuck_at=1),
                MemoryBitFlipFault(bit=0),
                UartCorruptionFault(0x20),
            ],
            activation_times=(3e-5, ACTIVATION, 9e-5),
            scenarios=PlatformScenarioSpec(firmwares=FIRMWARES),
            seed=3,
        )

    @pytest.fixture(scope="class")
    def executed(self, spec, tmp_path_factory):
        """The campaign executed into a fresh store, and that store."""
        directory = tmp_path_factory.mktemp("full-store")
        result = campaign_runner(store=directory).run(spec, CAMPAIGN_DURATION)
        assert result.executed.all() and len(RunStore(directory)) == len(spec)
        return result, directory

    @staticmethod
    def store_keeping(executed, spec, tmp_path, keep) -> "tuple[RunStore, list[str]]":
        """A copy of the full store holding only the runs ``keep`` accepts,
        and every run's key in run order."""
        shutil.copytree(executed[1], tmp_path / "store")
        store = RunStore(tmp_path / "store")
        # Every run has its own fault seed, which its store inputs record.
        index_of = {run.fault_seed: run.index for run in spec.expand()}
        keys = [""] * len(spec)
        for key in store.keys():
            index = index_of[store.entry(key)["inputs"]["extras"]["fault_seed"]]
            keys[index] = key
            if not keep(index):
                store.path_for(key).unlink()
        return store, keys

    @staticmethod
    def spy_fan_out(monkeypatch) -> list[dict]:
        """Record what each fan-out receives and the chunks it returns."""
        calls = []
        fan_out = executor.map_scenario_chunks

        def spy(worker, config, work, workers, progress=None):
            chunks = fan_out(worker, config, work, workers, progress)
            calls.append(
                {
                    "keys": [key for _, key, _ in work],
                    "chunks": [len(chunk["outcomes"]) for chunk in chunks],
                }
            )
            return chunks

        monkeypatch.setattr(executor, "map_scenario_chunks", spy)
        return calls

    def test_fully_stored_resume_starts_no_pool(self, spec, executed, monkeypatch):
        def no_pool(*args, **kwargs):
            pytest.fail("a fully stored resume requested a process pool")

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", no_pool)
        first, directory = executed
        resumed = campaign_runner(store=directory, resume=True, workers=2).run(
            spec, CAMPAIGN_DURATION
        )
        assert not resumed.executed.any()
        assert resumed.workers == 1
        assert resumed.results == first.results
        assert verdict_rows(resumed) == verdict_rows(first)
        assert resumed.to_csv() == first.to_csv()

    def test_non_contiguous_subset_executes_the_missing_runs_in_two_even_chunks(
        self, spec, executed, tmp_path, monkeypatch
    ):
        store, keys = self.store_keeping(
            executed, spec, tmp_path, lambda index: index % 3 == 0
        )
        missing = [index for index in range(len(spec)) if index % 3]
        calls = self.spy_fan_out(monkeypatch)
        resumed = campaign_runner(store=store, resume=True, workers=2).run(
            spec, CAMPAIGN_DURATION
        )
        assert calls == [
            {"keys": [keys[index] for index in missing], "chunks": [4, 4]}
        ]
        assert list(np.flatnonzero(resumed.executed)) == missing
        assert resumed.workers == 2
        first = executed[0]
        assert resumed.results == first.results
        assert verdict_rows(resumed) == verdict_rows(first)
        assert resumed.to_csv() == first.to_csv()

    def test_interrupt_after_counts_executed_runs_per_chunk(
        self, spec, executed, tmp_path
    ):
        # Runs 0, 3 and 6 stored: nine pending runs split 4 + 5.  With a
        # budget of 4 the first chunk completes and the second commits 4
        # runs, then interrupts; its fifth run is all that is left.
        store, keys = self.store_keeping(
            executed, spec, tmp_path, lambda index: index in (0, 3, 6)
        )
        with pytest.raises(CampaignInterrupted, match="after executing 4"):
            campaign_runner(
                store=store, resume=True, workers=2, interrupt_after=4
            ).run(spec, CAMPAIGN_DURATION)
        assert sorted(store.keys()) == sorted(keys[:11])
        resumed = campaign_runner(store=store, resume=True).run(
            spec, CAMPAIGN_DURATION
        )
        assert list(np.flatnonzero(resumed.executed)) == [11]
        assert resumed.results == executed[0].results

    def test_serial_interrupt_after_counts_from_the_first_pending_run(
        self, spec, executed, tmp_path
    ):
        store, keys = self.store_keeping(
            executed, spec, tmp_path, lambda index: index % 3 == 0
        )
        with pytest.raises(CampaignInterrupted, match="after executing 2"):
            campaign_runner(store=store, resume=True, interrupt_after=2).run(
                spec, CAMPAIGN_DURATION
            )
        assert sorted(store.keys()) == sorted(keys[index] for index in (0, 1, 2, 3, 6, 9))

    def test_torn_record_raises_store_error_naming_its_file(
        self, spec, executed, tmp_path
    ):
        store, _ = self.store_keeping(executed, spec, tmp_path, lambda index: True)
        victim = store.path_for(store.keys()[5])
        victim.write_text("{torn", encoding="utf-8")
        with pytest.raises(StoreError, match=re.escape(str(victim))):
            campaign_runner(store=store, resume=True, workers=2).run(
                spec, CAMPAIGN_DURATION
            )

    def test_undecodable_record_raises_store_error_naming_its_file(
        self, spec, executed, tmp_path
    ):
        store, _ = self.store_keeping(executed, spec, tmp_path, lambda index: True)
        victim = store.path_for(store.keys()[5])
        payload = json.loads(victim.read_text(encoding="utf-8"))
        payload["record"]["result"]["bogus"] = 1
        victim.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(StoreError, match=re.escape(str(victim))) as caught:
            campaign_runner(store=store, resume=True, workers=2).run(
                spec, CAMPAIGN_DURATION
            )
        assert isinstance(caught.value.__cause__, PlatformError)
        assert "bogus" in str(caught.value)

    def test_traced_resume_reads_each_block_file_once(self, spec, executed):
        blocks = len(list(RunStore(executed[1]).blocks_directory.iterdir()))
        assert 1 <= blocks < len(spec)
        resumed = campaign_runner(store=executed[1], resume=True, trace=True).run(
            spec, CAMPAIGN_DURATION
        )
        assert resumed.telemetry.counters["store.block_reads"] == blocks
        assert "store.block_writes" not in resumed.telemetry.counters

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_resume_counts_each_store_hit_once(self, spec, executed, workers):
        resumed = campaign_runner(
            store=executed[1], resume=True, workers=workers, trace=True
        ).run(spec, CAMPAIGN_DURATION)
        counters = resumed.telemetry.counters
        assert counters["store.hits"] == len(spec)
        assert counters["platform.loaded"] == len(spec)
        assert "store.misses" not in counters and "store.commits" not in counters
        assert resumed.telemetry.workers == 1

    def test_traced_pooled_resume_merges_coordinator_and_worker_counters(
        self, spec, executed, tmp_path
    ):
        store, _ = self.store_keeping(
            executed, spec, tmp_path, lambda index: index % 3 == 0
        )
        resumed = campaign_runner(
            store=store, resume=True, workers=2, trace=True
        ).run(spec, CAMPAIGN_DURATION)
        counters = resumed.telemetry.counters
        assert counters["store.hits"] == counters["platform.loaded"] == 4
        assert counters["store.misses"] == 8
        assert counters["store.commits"] == counters["platform.runs"] == 8
        assert resumed.telemetry.workers == 2


class TestPinnedStoreKeys:
    """Store keys are an on-disk format: a changed key orphans every store.

    The digests below are the keys these runs have always been stored
    under; key derivation may only change deliberately, together with them.
    """

    def test_engine_keys_are_stable(self, tmp_path):
        SweepRunner(
            BENCH.build, "out", WAVE, timestep=TIMESTEP, store=tmp_path / "sweep"
        ).run(GridSpec(axes={"resistance": [4e3]}), 2e-5)
        platform_runner(store=tmp_path / "platform").run(
            PlatformScenarioSpec(styles=("python", "cosim"), firmwares=FIRMWARES),
            2e-5,
        )
        campaign_runner(store=tmp_path / "fault").run(
            FaultCampaignSpec(
                faults=[AdcStuckBitFault(bit=9, stuck_at=1)],
                activation_times=(1e-5,),
                scenarios=PlatformScenarioSpec(firmwares=FIRMWARES),
                seed=3,
            ),
            2e-5,
        )
        keys = {
            engine: RunStore(tmp_path / engine).keys()
            for engine in ("sweep", "platform", "fault")
        }
        assert keys == {
            "sweep": [
                "6e27940bd83a0820abf0ec8c4d8d4da69b036f9bcdfbba8be4af75dde3c0de2a",
            ],
            "platform": [
                "2f5ddbc6de708fd9c69626fe904e619aa40dbbd1f5e8e8cdbec273c37a470c52",
                "5839c870e7a8646633faff3d1db255d6d17dbdaa7392d3030324a751c3ad3727",
            ],
            "fault": [
                "7b12301c4a1e07882d87d169a1ebf12bb9299be2c41457eb37546c3e9cf76ff0",
                "b639f26f85977073bf0c95eb3bf95cfb34f12fb71d663ae6cb6e779db16f2456",
            ],
        }


class TestEmptyCoverageRendering:
    def test_zero_faulted_runs_render_na_not_nan(self):
        from repro.fault.report import FaultCampaignResult
        from repro.fault.campaign import FaultScenario
        from repro.sweep import PlatformScenarioSpec

        scenario = PlatformScenarioSpec(firmwares=FIRMWARES).expand()[0]
        golden = platform_runner().run([scenario], DURATION, firmwares=FIRMWARES)
        result = FaultCampaignResult(
            scenarios=[FaultScenario(**vars(scenario))],
            results=golden.results,
            elapsed=golden.elapsed,
            duration=DURATION,
            timestep=TIMESTEP,
        )
        assert np.isnan(result.detected_fraction())
        assert result.coverage_text() == "n/a (0 faulted runs)"
        report = result.to_markdown()
        assert "nan" not in report
        assert "n/a (0 faulted runs)" in report
        # The CSV stays well-formed: a single header row, no dangling commas.
        csv = result.to_csv()
        assert csv.splitlines()[0].startswith("#,fault,")
        assert len(csv.splitlines()) == 1
