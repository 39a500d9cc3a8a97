"""Tests of the ``repro.store`` subsystem: atomic writes, keys, RunStore,
and checkpoint/resume through :class:`~repro.sweep.runner.SweepRunner`.

The platform-sweep and fault-campaign resume guarantees (interrupt
mid-chunk, bit-identical resume) live in ``test_store_resume.py``; this
module covers the primitives and the signal-flow sweep integration.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os

import numpy as np
import pytest

from repro.circuits import build_rc_filter
from repro.errors import StoreError
from repro.sim import SquareWave
from repro.store import (
    STORE_FORMAT,
    RunStore,
    as_run_store,
    atomic_write_json,
    atomic_write_text,
    canonical_json,
    digest_key,
    fingerprint,
)
from repro.store.atomic import TMP_SUFFIX
from repro.store.runstore import BLOCK, BLOCK_MIN
from repro.sweep import MonteCarloSpec, SweepError, SweepRunner
from repro.vp import PlatformRunResult

TIMESTEP = 50e-9
SHORT = 2e-5
WAVE = {"vin": SquareWave(period=1e-3)}
RC_NOMINAL = {"order": 1, "resistance": 5e3, "capacitance": 25e-9}


def rc_runner(**kwargs) -> SweepRunner:
    return SweepRunner(
        build_rc_filter, "out", stimuli=WAVE, timestep=TIMESTEP, **kwargs
    )


def poisoned_factory(**params):
    """Module-level (hence picklable) factory that fails inside workers."""
    raise RuntimeError("this circuit cannot pickle its destiny")


def mc_spec(samples: int = 6, seed: int = 7) -> MonteCarloSpec:
    return MonteCarloSpec(
        nominal=RC_NOMINAL,
        tolerances={"resistance": 0.05, "capacitance": 0.05},
        samples=samples,
        seed=seed,
    )


class TestAtomicWrites:
    def test_publishes_content_and_creates_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "file.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"

    def test_overwrites_atomically_without_tmp_orphans(self, tmp_path):
        path = tmp_path / "file.json"
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        assert json.loads(path.read_text())["v"] == 2
        assert [p for p in tmp_path.iterdir()] == [path]

    def test_unserializable_payload_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="JSON"):
            atomic_write_json(tmp_path / "bad.json", {"f": object()})
        assert not (tmp_path / "bad.json").exists()

    def test_failure_cleans_up_the_temp_file(self, tmp_path):
        target = tmp_path / "dir_in_the_way"
        target.mkdir()
        with pytest.raises(StoreError):
            atomic_write_text(target, "x")
        assert not any(p.name.endswith(TMP_SUFFIX) for p in tmp_path.iterdir())


class TestFingerprints:
    def test_primitives_and_containers_pass_through(self):
        assert fingerprint(3) == 3
        assert fingerprint([1, "a", None]) == [1, "a", None]
        assert fingerprint({"b": 2, "a": 1}) == ["mapping", [["a", 1], ["b", 2]]]

    def test_dataclass_fingerprints_by_field_values_not_repr(self):
        a = fingerprint(SquareWave(period=4e-5))
        b = fingerprint(SquareWave(period=4e-5))
        c = fingerprint(SquareWave(period=5e-5))
        assert a == b
        assert a != c
        assert "0x" not in canonical_json(a)

    def test_functions_fingerprint_by_qualified_name(self):
        assert fingerprint(build_rc_filter) == fingerprint(build_rc_filter)
        assert "0x" not in canonical_json(fingerprint(build_rc_filter))

    def test_partial_recurses_into_func_and_arguments(self):
        one = fingerprint(functools.partial(build_rc_filter, 1))
        two = fingerprint(functools.partial(build_rc_filter, 2))
        assert one != two

    def test_distinct_lambdas_key_apart_via_source_digest(self):
        first = fingerprint(lambda t: t)
        second = fingerprint(lambda t: 2 * t)
        assert first != second

    def test_closures_over_different_values_key_apart(self):
        # Factory-made callables share source and qualname; only the
        # captured cell distinguishes them — it must be part of the key.
        def make_wave(amplitude):
            return lambda t: amplitude

        assert fingerprint(make_wave(1.0)) != fingerprint(make_wave(2.0))
        assert fingerprint(make_wave(1.0)) == fingerprint(make_wave(1.0))

    def test_default_arguments_are_part_of_the_key(self):
        def with_default(t, gain=1.0):
            return gain * t

        one = fingerprint(with_default)
        with_default.__defaults__ = (2.0,)
        assert fingerprint(with_default) != one

    def test_bound_methods_carry_instance_state(self):
        class Bench:
            def __init__(self, order):
                self.order = order

            def build(self):
                return self.order

        assert fingerprint(Bench(1).build) != fingerprint(Bench(2).build)

    def test_recursive_closures_terminate(self):
        def recursive():
            def inner(n):
                return inner(n - 1) if n else 0

            return inner

        assert fingerprint(recursive()) == fingerprint(recursive())

    def test_digest_is_stable_and_order_insensitive(self):
        assert digest_key({"a": 1, "b": 2}) == digest_key({"b": 2, "a": 1})
        assert digest_key({"a": 1}) != digest_key({"a": 2})

    def test_large_arrays_fingerprint_by_content_not_repr(self):
        # numpy's repr truncates ('...') and rounds — repr-based keys would
        # collide for arrays differing only in a hidden element.
        base = np.arange(2000.0)
        tweaked = base.copy()
        tweaked[1200] = -999.0
        assert fingerprint(base) != fingerprint(tweaked)
        assert fingerprint(base) == fingerprint(base.copy())
        assert fingerprint(np.float64(1.5)) == 1.5


class TestRunStore:
    def test_commit_load_round_trip_is_exact(self, tmp_path):
        store = RunStore(tmp_path / "campaign")
        key = store.key({"x": 1.1e-9})
        store.commit(key, {"rows": [0.1, 2.5e-300, -1.0]}, inputs={"x": 1.1e-9})
        assert store.contains(key)
        assert store.load(key) == {"rows": [0.1, 2.5e-300, -1.0]}
        assert store.keys() == [key]
        assert len(store) == 1

    def test_numpy_payloads_are_converted_exactly(self, tmp_path):
        store = RunStore(tmp_path)
        key = store.key({"n": 1})
        row = np.linspace(0.0, 1.0, 7)
        store.commit(key, {"row": row, "count": np.int64(3)})
        loaded = store.load(key)
        assert np.asarray(loaded["row"]).tolist() == row.tolist()
        assert loaded["count"] == 3

    def test_platform_record_bytes_match_an_asdict_payload(self, tmp_path):
        trace = np.random.default_rng(5).normal(size=4000).tolist()
        # Engines may hand back numpy scalars; they must still go through .item().
        trace[:3] = [np.float64(1 / 3), np.float32(0.1), -0.0]
        result = PlatformRunResult(
            simulated_time=2e-4,
            instructions=4321,
            bus_transactions=87,
            uart_output="T\n",
            analog_samples=len(trace),
            crossings_reported=2,
            analog_style="python",
            extra={"wall": np.float64(0.25), "steps": np.int64(4000)},
            analog_trace=trace,
        )
        payload = result.to_payload()
        assert payload == dataclasses.asdict(result)
        assert payload["analog_trace"] is not result.analog_trace
        written = {}
        for name, result_payload in (("shallow", payload), ("asdict", dataclasses.asdict(result))):
            store = RunStore(tmp_path / name)
            key = store.key({"run": 1})
            store.commit(key, {"result": result_payload, "elapsed": 0.5}, inputs={"run": 1})
            written[name] = store.path_for(key).read_bytes()
        assert written["shallow"] == written["asdict"]

    def test_float_sequences_are_written_as_binary_blocks(self, tmp_path):
        store = RunStore(tmp_path)
        key = store.key({"n": 1})
        trace = np.random.default_rng(3).normal(size=4000).tolist()
        trace[:4] = [-0.0, 5e-324, 1 / 3, float("inf")]
        rows = np.linspace(0.0, 1.0, BLOCK_MIN, dtype=np.float32)
        store.commit(key, {"result": {"trace": trace}, "rows": rows})
        on_disk = json.loads(store.path_for(key).read_text())
        assert on_disk["format"] == STORE_FORMAT == 2
        assert set(on_disk["record"]["result"]["trace"]) == {BLOCK}
        assert set(on_disk["record"]["rows"]) == {BLOCK}
        loaded = store.load(key)
        assert loaded["result"]["trace"] == trace
        assert all(type(value) is float for value in loaded["result"]["trace"])
        assert np.signbit(loaded["result"]["trace"][0])
        assert loaded["rows"] == rows.tolist()

    def test_short_or_mixed_sequences_stay_json_lists(self, tmp_path):
        store = RunStore(tmp_path)
        key = store.key({"n": 1})
        short = [0.5] * (BLOCK_MIN - 1)
        mixed = [0.5] * BLOCK_MIN + [1]
        store.commit(key, {"short": short, "mixed": mixed, "ints": list(range(40))})
        on_disk = json.loads(store.path_for(key).read_text())["record"]
        assert on_disk == {"short": short, "mixed": mixed, "ints": list(range(40))}

    def test_records_may_not_use_the_block_key(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(StoreError, match="reserved"):
            store.commit(store.key({"n": 1}), {"nested": {BLOCK: "AAAAAAAAAAA="}})
        assert len(store) == 0

    @pytest.mark.parametrize("block", ["not base64!", "AAAA", 7])
    def test_malformed_block_fails_loud(self, tmp_path, block):
        store = RunStore(tmp_path)
        key = store.key({"n": 1})
        store.commit(key, {"trace": [0.25] * BLOCK_MIN})
        path = store.path_for(key)
        payload = json.loads(path.read_text())
        payload["record"]["trace"] = {BLOCK: block}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(StoreError, match=str(path)):
            store.load(key)

    def test_format_one_stores_are_refused(self, tmp_path):
        (tmp_path / RunStore.MARKER).write_text(json.dumps({"format": 1}))
        with pytest.raises(StoreError, match="format-1 store"):
            RunStore(tmp_path)

    def test_missing_key_loads_none(self, tmp_path):
        assert RunStore(tmp_path).load("0" * 64) is None

    def test_malformed_record_error_names_the_file(self, tmp_path):
        store = RunStore(tmp_path)
        key = store.key({"n": 1})
        store.commit(key, {"ok": True})
        path = store.path_for(key)
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreError, match=str(path)):
            store.load(key)

    def test_key_mismatch_is_detected(self, tmp_path):
        store = RunStore(tmp_path)
        key_a, key_b = store.key({"n": 1}), store.key({"n": 2})
        store.commit(key_a, {"n": 1})
        os.replace(store.path_for(key_a), store.path_for(key_b))
        with pytest.raises(StoreError, match="digest mismatch"):
            store.load(key_b)

    def test_format_marker_guards_future_versions(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit(store.key({"n": 1}), {"n": 1})
        marker = tmp_path / RunStore.MARKER
        marker.write_text(json.dumps({"format": 99}), encoding="utf-8")
        with pytest.raises(StoreError, match="format-99"):
            RunStore(tmp_path)

    def test_tmp_orphans_are_invisible(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit(store.key({"n": 1}), {"n": 1})
        orphan = store.runs_directory / f".orphan.json{TMP_SUFFIX}"
        orphan.write_text("torn", encoding="utf-8")
        assert len(store) == 1

    def test_as_run_store_coerces_paths(self, tmp_path):
        store = as_run_store(tmp_path)
        assert isinstance(store, RunStore)
        assert as_run_store(store) is store
        assert as_run_store(None) is None


class TestSweepStoreResume:
    def test_run_commits_one_record_per_scenario(self, tmp_path):
        spec = mc_spec()
        result = rc_runner(store=tmp_path).run(spec, SHORT)
        assert result.executed.all()
        assert result.executed_count == len(spec)
        assert len(RunStore(tmp_path)) == len(spec)

    def test_resume_loads_everything_bit_identically(self, tmp_path):
        spec = mc_spec()
        baseline = rc_runner(store=tmp_path).run(spec, SHORT)
        resumed = rc_runner(store=tmp_path, resume=True).run(spec, SHORT)
        assert resumed.executed_count == 0
        assert np.array_equal(
            baseline.ensemble("V(out)"), resumed.ensemble("V(out)")
        )
        assert resumed.structure_groups == baseline.structure_groups

    def test_partial_store_resumes_only_the_missing_scenarios(self, tmp_path):
        spec = mc_spec()
        scenarios = spec.expand()
        uninterrupted = rc_runner().run(spec, SHORT)
        # Simulate an interrupted sweep: only the first half was committed.
        rc_runner(store=tmp_path).run(scenarios[: len(scenarios) // 2], SHORT)
        committed = len(RunStore(tmp_path))
        resumed = rc_runner(store=tmp_path, resume=True).run(spec, SHORT)
        assert resumed.executed_count == len(scenarios) - committed
        assert not resumed.executed[: committed].any()
        assert resumed.executed[committed:].all()
        assert np.array_equal(
            uninterrupted.ensemble("V(out)"), resumed.ensemble("V(out)")
        )

    def test_multiprocess_workers_load_from_the_store(self, tmp_path):
        spec = mc_spec(samples=8)
        scenarios = spec.expand()
        uninterrupted = rc_runner().run(spec, SHORT)
        rc_runner(store=tmp_path).run(scenarios[:3], SHORT)
        resumed = rc_runner(store=tmp_path, resume=True, workers=2).run(spec, SHORT)
        assert resumed.executed_count == len(scenarios) - 3
        assert np.array_equal(
            uninterrupted.ensemble("V(out)"), resumed.ensemble("V(out)")
        )

    def test_fully_resumed_multi_output_order_is_preserved(self, tmp_path):
        # The JSON record stores outputs key-sorted; the model's column
        # order must round-trip explicitly or a fully-loaded run would
        # assemble its ensemble (and CSV) in a different order.
        def runner(**kwargs):
            return SweepRunner(
                build_rc_filter,
                ["out", "I(r1)"],
                stimuli=WAVE,
                timestep=TIMESTEP,
                **kwargs,
            )

        spec = mc_spec(samples=2)
        fresh = runner(store=tmp_path).run(spec, SHORT)
        resumed = runner(store=tmp_path, resume=True).run(spec, SHORT)
        assert resumed.executed_count == 0
        assert resumed.output_names() == fresh.output_names()
        assert resumed.to_csv() == fresh.to_csv()

    def test_scalar_backend_shares_the_same_store_protocol(self, tmp_path):
        spec = mc_spec(samples=3)
        first = rc_runner(backend="python", store=tmp_path).run(spec, SHORT)
        resumed = rc_runner(backend="python", store=tmp_path, resume=True).run(
            spec, SHORT
        )
        assert resumed.executed_count == 0
        assert np.array_equal(
            first.ensemble("V(out)"), resumed.ensemble("V(out)")
        )

    def test_store_key_covers_the_execution_grid(self, tmp_path):
        # A different duration must not hit the same records.
        spec = mc_spec(samples=2)
        rc_runner(store=tmp_path).run(spec, SHORT)
        result = rc_runner(store=tmp_path, resume=True).run(spec, 2 * SHORT)
        assert result.executed_count == 2
        assert len(RunStore(tmp_path)) == 4

    def test_store_key_covers_stimuli(self, tmp_path):
        spec = mc_spec(samples=2)
        rc_runner(store=tmp_path).run(spec, SHORT)
        other = SweepRunner(
            build_rc_filter,
            "out",
            stimuli={"vin": SquareWave(period=2e-3)},
            timestep=TIMESTEP,
            store=tmp_path,
            resume=True,
        ).run(spec, SHORT)
        assert other.executed_count == 2

    def test_numpy_typed_params_key_cleanly(self, tmp_path):
        # Axes built from numpy arrays yield np.float32/np.int64 param
        # values; the store key must canonicalize them, not crash on them.
        from repro.sweep import GridSpec

        spec = GridSpec(
            axes={"resistance": np.array([4e3, 5e3], dtype=np.float32)},
            base={"order": np.int64(1), "capacitance": 25e-9},
        )
        first = rc_runner(store=tmp_path).run(spec, SHORT)
        resumed = rc_runner(store=tmp_path, resume=True).run(spec, SHORT)
        assert resumed.executed_count == 0
        assert np.array_equal(
            first.ensemble("V(out)"), resumed.ensemble("V(out)")
        )

    def test_resume_without_store_is_rejected(self):
        with pytest.raises(SweepError, match="resume"):
            rc_runner(resume=True)

    def test_corrupt_record_fails_loud_not_silent_rerun(self, tmp_path):
        spec = mc_spec(samples=2)
        rc_runner(store=tmp_path).run(spec, SHORT)
        store = RunStore(tmp_path)
        victim = store.path_for(store.keys()[0])
        victim.write_text("{torn", encoding="utf-8")
        with pytest.raises(StoreError, match=str(victim)):
            rc_runner(store=tmp_path, resume=True).run(spec, SHORT)


class TestPickleRouting:
    """The submission-path pickle probe vs genuine worker errors."""

    def test_unpicklable_payload_falls_back_to_serial(self):
        import warnings

        spec = mc_spec(samples=4)
        serial = rc_runner().run(spec, SHORT)
        lambda_stim = {"vin": lambda t: SquareWave(period=1e-3)(t)}
        runner = SweepRunner(
            build_rc_filter, "out", stimuli=lambda_stim, timestep=TIMESTEP, workers=2
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.run(spec, SHORT)
        assert any("not picklable" in str(w.message) for w in caught)
        assert result.workers == 1
        assert np.array_equal(serial.ensemble("V(out)"), result.ensemble("V(out)"))

    def test_worker_error_mentioning_pickle_still_propagates(self):
        # The historical bug: substring-matching "pickle" in the error text
        # misrouted genuine worker errors into a silent serial retry.
        import warnings

        runner = SweepRunner(
            poisoned_factory, "out", stimuli=WAVE, timestep=TIMESTEP, workers=2
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="destiny"):
                runner.run(mc_spec(samples=4), SHORT)
        assert not caught
